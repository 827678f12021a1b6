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
// of the windows. A replica then costs a quarter of the columns plus
// its own chain link, views and directory: 36 B with distinct keys and
// 24 B with four tuples per key.
func TestHashIndexFootprintBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory inflates the heap")
	}
	for _, tc := range []struct {
		name          string
		n, dups       int
		sharers       int     // 0: one index of private blocks
		live, alloced float64 // budgets, bytes per stored replica
	}{
		{"125k-distinct", 125_000, 1, 0, 64, 110},
		{"1M-distinct", 1_000_000, 1, 0, 64, 110},
		{"125k-4dup", 125_000, 4, 0, 52, 110},
		{"1M-4dup", 1_000_000, 4, 0, 52, 110},
		{"125k-distinct-shared", 125_000, 1, 4, 36, 60},
		{"125k-4dup-shared", 125_000, 4, 4, 24, 60},
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
			if tc.sharers == 0 {
				for i := 0; i < tc.n; i += 32 {
					idxs[0].InsertBatch(stream[i:min(i+32, tc.n)])
				}
			} else {
				for len(idxs) < tc.sharers {
					idxs = append(idxs, NewHashIndex())
				}
				storeShared(stream, tc.sharers, 32, func(run []Tuple, w Window) {
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
			t.Logf("%.1f B/tuple live (Footprint: %.1f arena + %.1f directory), %.1f B/tuple allocated, %d mallocs, %d keys",
				live, float64(arena)/n, float64(dir)/n, alloced, mallocs, h.used)

			if h.Len() != tc.n || h.used != (tc.n+tc.dups-1)/tc.dups {
				t.Fatalf("built %d tuples under %d keys, want %d under %d", h.Len(), h.used, tc.n, (tc.n+tc.dups-1)/tc.dups)
			}
			if live > tc.live {
				t.Errorf("live heap %.1f B/tuple, budget %.0f", live, tc.live)
			}
			if alloced > tc.alloced {
				t.Errorf("allocated %.1f B/tuple, budget %.0f", alloced, tc.alloced)
			}
			// Two objects per block, then a logarithmic tail: directory
			// generations (16 slots doubling to the final size), chunk
			// list regrowths, the index itself and test scaffolding.
			blocks := uint64(h.nchains * len(idxs))
			if limit := 2*blocks + 64*uint64(len(idxs)); mallocs > limit {
				t.Errorf("%d mallocs for %d blocks, limit %d: something allocates per key", mallocs, blocks, limit)
			}
			if fp := float64(arena+dir) / n; fp < live*0.98 || fp > live*1.02 {
				t.Errorf("Footprint reports %.1f B/tuple, measured live heap %.1f", fp, live)
			}
			runtime.KeepAlive(idxs)
			runtime.KeepAlive(stream)
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
