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
// a joiner does (batched inserts) and holds the measured
// heap against a budget per tuple, so a slot that regrows a field, a
// chain that moves back onto the heap, a block that stores a u or meta
// column its rows do not need, or a per-key object fails here instead
// of in a benchmark run:
//
//   - live heap (HeapAlloc delta after two collections): 48 B with
//     distinct keys — 24 B columns (key, aux, seq; the block derives
//     every u and the one meta word) + 4 B chain + 2.5 B header and
//     size-class rounding + 16.8 B directory at load 0.48 — and 36 B
//     with four tuples per key, where the directory's share divides by
//     four; u values derived from a seed cost what zeros do, and
//     caller-set ones 8 B more for the block's u column;
//   - allocated in total (TotalAlloc delta): every directory generation
//     discarded by doubling counts against it;
//   - objects (Mallocs delta): two per block (three with a u column),
//     one per directory generation, the chunk list's regrowths —
//     nothing per key.
//
// It also holds Footprint(), the O(1) figure the joiner gauges export,
// to within 2 % of the measured live heap.
//
// The shared cases build four indexes the way the four joiners of a
// grid row do in one process: one stream written once through a
// BlockWriter of fan-out 4 in windows of 32, each index storing views
// of the windows. Without the writer's slot index (the layout a store
// falls back to once its segment freezes) a replica costs a quarter of
// the columns plus its own chain link, views and directory: 29 B with
// distinct keys and 16 B with four tuples per key. The segment cases
// read the writer's slot index instead, so the directory and chain
// links are a quarter's share too: 13 B and 10 B. Their Footprint
// charges each reader its share of the slot index.
func TestHashIndexFootprintBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory inflates the heap")
	}
	for _, tc := range []struct {
		name          string
		n, dups       int
		sharers       int     // 0: one index copying through its own writer
		segment       bool    // the sharers read the writer's slot index
		u             string  // the tuples' u: "zero", "derived" (UMix of a seed) or "caller" (drawn)
		live, alloced float64 // budgets, bytes per stored replica
	}{
		{"125k-distinct", 125_000, 1, 0, false, "zero", 48, 70},
		{"1M-distinct", 1_000_000, 1, 0, false, "zero", 48, 70},
		{"125k-4dup", 125_000, 4, 0, false, "zero", 36, 44},
		{"1M-4dup", 1_000_000, 4, 0, false, "zero", 36, 44},
		{"125k-distinct-derived-u", 125_000, 1, 0, false, "derived", 48, 70},
		{"125k-distinct-caller-u", 125_000, 1, 0, false, "caller", 56, 78},
		{"125k-distinct-shared", 125_000, 1, 4, false, "zero", 29, 48},
		{"125k-4dup-shared", 125_000, 4, 4, false, "zero", 16, 22},
		{"125k-distinct-segment", 125_000, 1, 4, true, "zero", 13, 18},
		{"125k-4dup-segment", 125_000, 4, 4, true, "zero", 10, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stream := make([]Tuple, tc.n)
			for i := range stream {
				// Odd multiplier: a bijection on the key space, so
				// exactly n/dups distinct keys in scattered order.
				key := int64(uint64(i/tc.dups) * 0x9e3779b97f4a7c15)
				stream[i] = Tuple{Rel: matrix.SideS, Key: key, Size: 8, Seq: uint64(i + 1)}
				switch tc.u {
				case "derived":
					stream[i].U = UMix(2014, stream[i].Seq)
				case "caller":
					stream[i].U = hashKey(int64(i)) | 1
				}
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
				bw.Reset(tc.sharers, tc.segment, 0)
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
			keys, blocks := h.own.ix.used, uint64(h.own.ix.nblocks*len(idxs))
			if tc.segment {
				if len(h.segs) != 1 || h.own.ix.used != 0 {
					t.Fatalf("index reads %d segments over %d keys of its own, want 1 over none", len(h.segs), h.own.ix.used)
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
			// three with a u column, then a logarithmic tail: directory
			// generations (16 slots doubling to the final size), chunk
			// list and block table regrowths, the index itself and test
			// scaffolding.
			perBlock := uint64(2)
			if tc.u == "caller" {
				perBlock = 3
			}
			if limit := perBlock*blocks + 64*uint64(len(idxs)); mallocs > limit {
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
//
// The line-shared case builds four indexes the way the four joiners of
// a grid row do in one process: the stream is inserted once, into a
// LineTree of four readers, in windows of 32, and each index reads the
// tree through its segment. The tree's nodes are charged once per line,
// divided among its readers, so a replica costs a quarter of the
// budget, and the readers' Footprints together hold the tree once.
func TestOrderedIndexFootprintBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory inflates the heap")
	}
	for _, tc := range []struct {
		name    string
		sharers int // 0: one index inserting into its own tree
		budget  float64
	}{
		{"own", 0, 66.9},
		{"line-shared", 4, 66.9 / 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 50_000
			rng := rand.New(rand.NewSource(50))
			stream := make([]Tuple, n)
			for i := range stream {
				stream[i] = Tuple{Rel: matrix.SideS, Key: rng.Int63n(1 << 40), Size: 8, Seq: uint64(i + 1)}
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&before)

			idxs := []*OrderedIndex{NewOrderedIndex(8)}
			var lt *LineTree
			if tc.sharers == 0 {
				for i := 0; i < n; i += 32 {
					idxs[0].InsertBatch(stream[i:min(i+32, n)])
				}
			} else {
				for len(idxs) < tc.sharers {
					idxs = append(idxs, NewOrderedIndex(8))
				}
				lt = NewLineTree(tc.sharers)
				for i := 0; i < n; i += 32 {
					run := stream[i:min(i+32, n)]
					w := lt.Append(run)
					for _, o := range idxs {
						o.InsertWindow(run, w)
					}
				}
			}

			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&after)
			replicas := float64(n * len(idxs))
			live := float64(after.HeapAlloc-before.HeapAlloc) / replicas
			var arena, dir int64
			for _, o := range idxs {
				a, d := o.Footprint()
				arena += a
				dir += d
			}
			fp := float64(arena+dir) / replicas
			tree := &idxs[0].ordTree
			if lt != nil {
				tree = &lt.t
				if o := idxs[0]; o.line != lt || o.n != 0 || o.Len() != n {
					t.Fatalf("index reads the line's tree %v over %d own rows, %d in all; want it over none, %d in all", o.line == lt, o.n, o.Len(), n)
				}
			}
			t.Logf("%.1f B/tuple live (Footprint: %.1f leaves + %.1f inner nodes), %d leaves at %.1f tuples each, %d inner nodes",
				live, float64(arena)/replicas, float64(dir)/replicas, tree.leaves, float64(n)/float64(tree.leaves), tree.inners)
			if live > tc.budget {
				t.Errorf("live heap %.1f B/tuple, budget %.1f", live, tc.budget)
			}
			if fp < live*0.98 || fp > live*1.02 {
				t.Errorf("Footprint reports %.1f B/tuple, measured live heap %.1f", fp, live)
			}
			runtime.KeepAlive(idxs)
			runtime.KeepAlive(stream)
		})
	}
}
