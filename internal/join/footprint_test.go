package join

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/matrix"
)

// TestHashIndexFootprintBudget is the gate on resident bytes per stored
// tuple: the number the paper's per-machine storage objective prices
// and the spill cliff of §5 depends on. It builds one HashIndex the way
// a joiner does (batched inserts, no Reserve) and holds the measured
// heap against a budget per tuple, so a slot that regrows a field, a
// chain that moves back onto the heap, or a per-key object fails here
// instead of in a benchmark run:
//
//   - live heap (HeapAlloc delta after two collections): 64 B with
//     distinct keys — 40 B columns + 4 B chain + 2.5 B size-class
//     rounding + 16.8 B directory at load 0.48 — and 52 B with four
//     tuples per key, where the directory's share divides by four;
//   - allocated in total (TotalAlloc delta): 110 B, which every
//     directory generation discarded by doubling counts against;
//   - objects (Mallocs delta): two per block, one per directory
//     generation, the chunk list's regrowths — nothing per key.
//
// It also holds Footprint(), the O(1) figure the joiner gauges export,
// to within 2 % of the measured live heap.
//
// The shared cases build four indexes the way the four joiners of a
// grid row do in one process: one stream written once through a
// BlockWriter of fan-out 4 in windows of 32, each index storing views
// of the windows. Without the writer's slot index (the layout a store
// falls back to once its segment freezes) a replica costs a quarter of
// the columns plus its own chain link, views and directory: 36 B with
// distinct keys and 24 B with four tuples per key. The segment cases
// read the writer's slot index instead, so the directory and chain
// links are a quarter's share too: 18 B and 15 B. Their Footprint
// charges each reader its share of the slot index.
func TestHashIndexFootprintBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory inflates the heap")
	}
	for _, tc := range []struct {
		name          string
		n, dups       int
		sharers       int     // 0: one index of private blocks
		segment       bool    // the sharers read the writer's slot index
		live, alloced float64 // budgets, bytes per stored replica
	}{
		{"125k-distinct", 125_000, 1, 0, false, 64, 110},
		{"1M-distinct", 1_000_000, 1, 0, false, 64, 110},
		{"125k-4dup", 125_000, 4, 0, false, 52, 110},
		{"1M-4dup", 1_000_000, 4, 0, false, 52, 110},
		{"125k-distinct-shared", 125_000, 1, 4, false, 36, 60},
		{"125k-4dup-shared", 125_000, 4, 4, false, 24, 60},
		{"125k-distinct-segment", 125_000, 1, 4, true, 18, 30},
		{"125k-4dup-segment", 125_000, 4, 4, true, 15, 30},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stream := make([]Tuple, tc.n)
			for i := range stream {
				// Odd multiplier: a bijection on the key space, so
				// exactly n/dups distinct keys in scattered order.
				key := int64(uint64(i/tc.dups) * 0x9e3779b97f4a7c15)
				stream[i] = Tuple{Rel: matrix.SideS, Key: key, Size: 8, Seq: uint64(i + 1)}
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&before)

			idxs := []*HashIndex{NewHashIndex()}
			var bw BlockWriter
			if tc.sharers == 0 {
				for i := 0; i < tc.n; i += 32 {
					idxs[0].InsertBatch(stream[i:min(i+32, tc.n)])
				}
			} else {
				for len(idxs) < tc.sharers {
					idxs = append(idxs, NewHashIndex())
				}
				bw.Reset(tc.sharers, tc.segment)
				writeShared(&bw, stream, 32, func(run []Tuple, w Window) {
					for _, h := range idxs {
						h.InsertWindow(run, w)
					}
				})
			}

			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&after)
			h := idxs[0]
			n := float64(tc.n * len(idxs))
			live := float64(after.HeapAlloc-before.HeapAlloc) / n
			alloced := float64(after.TotalAlloc-before.TotalAlloc) / n
			mallocs := after.Mallocs - before.Mallocs
			var arena, dir int64
			for _, h := range idxs {
				a, d := h.Footprint()
				arena += a
				dir += d
			}
			// keys counts the directory the replicas probe: their own, or
			// the writer's slot index, which each one's segment reads.
			keys, blocks := h.used, uint64(h.nchains*len(idxs))
			if tc.segment {
				if len(h.segs) != 1 || h.used != 0 {
					t.Fatalf("index reads %d segments over %d keys of its own, want 1 over none", len(h.segs), h.used)
				}
				keys, blocks = bw.ix.used, uint64(bw.ix.nblocks)
			}
			t.Logf("%.1f B/tuple live (Footprint: %.1f arena + %.1f directory), %.1f B/tuple allocated, %d mallocs, %d keys",
				live, float64(arena)/n, float64(dir)/n, alloced, mallocs, keys)

			if h.Len() != tc.n || keys != (tc.n+tc.dups-1)/tc.dups {
				t.Fatalf("built %d tuples under %d keys, want %d under %d", h.Len(), keys, tc.n, (tc.n+tc.dups-1)/tc.dups)
			}
			if live > tc.live {
				t.Errorf("live heap %.1f B/tuple, budget %.0f", live, tc.live)
			}
			if alloced > tc.alloced {
				t.Errorf("allocated %.1f B/tuple, budget %.0f", alloced, tc.alloced)
			}
			// Two objects per block (its columns and its chain column),
			// then a logarithmic tail: directory generations (16 slots
			// doubling to the final size), chunk list and block table
			// regrowths, the index itself and test scaffolding.
			if limit := 2*blocks + 64*uint64(len(idxs)); mallocs > limit {
				t.Errorf("%d mallocs for %d blocks, limit %d: something allocates per key", mallocs, blocks, limit)
			}
			if fp := float64(arena+dir) / n; fp < live*0.98 || fp > live*1.02 {
				t.Errorf("Footprint reports %.1f B/tuple, measured live heap %.1f", fp, live)
			}
			runtime.KeepAlive(idxs)
			runtime.KeepAlive(stream)
			runtime.KeepAlive(&bw)
		})
	}
}

// TestOrderedIndexFootprintBudget is the band index's counterpart:
// 50 000 tuples under uniform random keys, inserted in batches the way
// a joiner does, held against the live bytes per stored tuple the
// B-tree it replaced kept on the same stream (66.9 B: a 42.5 B share of
// a 512-tuple arena block plus node items, item slices and their
// slack), and Footprint() held to within 2 % of the measured live heap:
// leaves and inner nodes, as the allocator rounds them, are all the
// index allocates.
func TestOrderedIndexFootprintBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory inflates the heap")
	}
	const n, budget = 50_000, 66.9
	rng := rand.New(rand.NewSource(50))
	batch := make([]Tuple, 32)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)

	o := NewOrderedIndex(8)
	for i := 0; i < n; i += len(batch) {
		run := batch[:min(len(batch), n-i)]
		for j := range run {
			run[j] = Tuple{Rel: matrix.SideS, Key: rng.Int63n(1 << 40), Size: 8, Seq: uint64(i + j + 1)}
		}
		o.InsertBatch(run)
	}

	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := float64(after.HeapAlloc-before.HeapAlloc) / n
	arena, dir := o.Footprint()
	fp := float64(arena+dir) / n
	t.Logf("%.1f B/tuple live (Footprint: %.1f leaves + %.1f inner nodes), %d leaves at %.1f tuples each, %d inner nodes",
		live, float64(arena)/n, float64(dir)/n, o.leaves, float64(n)/float64(o.leaves), o.inners)
	if live > budget {
		t.Errorf("live heap %.1f B/tuple, budget %.1f", live, budget)
	}
	if fp < live*0.98 || fp > live*1.02 {
		t.Errorf("Footprint reports %.1f B/tuple, measured live heap %.1f", fp, live)
	}
	runtime.KeepAlive(o)
}
