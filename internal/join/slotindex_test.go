package join

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/exact"
	"repro/internal/matrix"
)

// slotMsg is one published window as a reader receives it.
type slotMsg struct {
	run []Tuple
	w   Window
}

// TestSlotIndexAsOf is the property behind segments: over random
// interleavings of several writers' appends and several readers'
// windows, every probe a reader makes of its store — segments read as
// of its watermark plus its own index — returns exactly what a
// HashIndex that copies the same runs returns. The writers
// take turns on one BlockWriter under a lock, as the reshufflers of a
// grid line do, and push each window to every reader before they
// release it, so every reader takes the line's windows in writer order.
// They run ahead of the readers on their own goroutines, so the
// readers' probes meet rows at and past their watermarks, directories
// swapped under them and blocks not yet in the table they loaded, each
// reader at its own watermark. The runs mix duplicate and distinct keys
// under a narrowed tagMask (every home slot contested by keys of one
// tag), payloads that force fresh blocks after published payload-free
// rows, and dummies; a run is published whole or split into several
// windows, a run past a block always split. Reader 0 takes
// every window; the others take gaps — a window they never get, or a
// run a replay filter shortened and stored as a copy — which freeze
// their segment, after which they index the line in their own index.
// At the end the line's index itself must pass the structural check
// and link every row the writers published.
func TestSlotIndexAsOf(t *testing.T) {
	forceTagCollisions(t)
	const readers, writers, windows = 3, 3, 800
	chans := make([]chan slotMsg, readers)
	for i := range chans {
		// Room for the writers to run a few blocks ahead of each reader,
		// as reshufflers run ahead of their joiners' inboxes, so probes
		// meet rows past their watermarks.
		chans[i] = make(chan slotMsg, 256)
	}
	var (
		mu    sync.Mutex // the line's lock: guards bw, k, rows, swaps
		bw    BlockWriter
		k     int
		rows  int
		swaps int
		wwg   sync.WaitGroup
	)
	bw.Reset(readers, true, 0)
	publish := func(run []Tuple, w Window) {
		for _, c := range chans {
			c <- slotMsg{run, w}
		}
		k++
		rows += len(run)
	}
	newRun := func(rng *rand.Rand, seq *uint64, n int) []Tuple {
		run := make([]Tuple, n)
		for i := range run {
			*seq++
			key := rng.Int63n(512)
			if rng.Intn(3) == 0 {
				key = rng.Int63n(1 << 40)
			}
			run[i] = diffTuple(rng, *seq, key)
		}
		return run
	}
	for wid := 0; wid < writers; wid++ {
		wwg.Add(1)
		go func(wid int) {
			defer wwg.Done()
			rng := rand.New(rand.NewSource(int64(71 + wid)))
			seq := uint64(wid) << 32 // disjoint sequence numbers per writer
			for {
				n := 1 + rng.Intn(48)
				if rng.Intn(60) == 0 {
					n = arenaChunk + 1 + rng.Intn(40)
				}
				run := newRun(rng, &seq, n)
				mu.Lock()
				if k >= windows {
					mu.Unlock()
					return
				}
				before := bw.ix.dir.Load()
				if len(run) <= arenaChunk && rng.Intn(2) == 0 {
					// The whole run as one window.
					publish(run, bw.AppendRun(run))
				} else {
					// The run split into windows of at most a block.
					writeShared(&bw, run, 1+rng.Intn(min(len(run), arenaChunk)), publish)
				}
				if bw.ix.dir.Load() != before && len(run) > 1 {
					swaps++
				}
				mu.Unlock()
			}
		}(wid)
	}
	go func() {
		wwg.Wait()
		for _, c := range chans {
			close(c)
		}
	}()

	errs := make([]error, readers)
	var wg sync.WaitGroup
	for id := 0; id < readers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			errs[id] = readSlotWindows(id, chans[id])
			for range chans[id] {
				// A reader that failed drains its channel, so no writer
				// is left blocked.
			}
		}(id)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", id, err)
		}
	}
	if swaps == 0 {
		t.Fatal("no directory grew while a window was indexed")
	}
	if linked := checkIndex(t, "line index", bw.ix, allRows); linked != rows {
		t.Fatalf("the line index links %d rows, the writers published %d", linked, rows)
	}
}

// readSlotWindows is one reader of TestSlotIndexAsOf: it stores the
// windows it takes into a store under test and copies of the same runs
// into a reference, and compares both after every window.
func readSlotWindows(id int, in <-chan slotMsg) error {
	rng := rand.New(rand.NewSource(int64(100 + id)))
	h, ref := NewHashIndex(), NewHashIndex()
	// frozen: a window after a gap has reached the segment, which must
	// then have stopped at its watermark.
	taken, frozen := 0, false
	gap := false
	var got, want []Pair
	for m := range in {
		run, w := m.run, m.w
		switch g := rng.Intn(40); {
		case id > 0 && taken > 10 && g == 0:
			gap = true
			continue // a window this reader never gets
		case id > 0 && taken > 10 && g == 1 && len(run) > 1:
			// A replay filter dropped a tuple: the rest is stored as a copy.
			drop := rng.Intn(len(run))
			run = append(append([]Tuple(nil), run[:drop]...), run[drop+1:]...)
			w = Window{}
			gap = true
		default:
			frozen = frozen || (gap && w.ix != nil)
		}
		h.InsertWindow(run, w)
		ref.InsertBatch(run)
		taken++
		if id == 2 && taken%64 == 0 {
			// A slow reader: the writers run up to its inbox's depth ahead.
			time.Sleep(50 * time.Microsecond)
		}

		// Probe keys of the run (hits, some on the window's own rows), an
		// older key and a miss.
		probes := make([]Tuple, 0, 6)
		for i := 0; i < 4 && len(run) > 0; i++ {
			tp := &run[rng.Intn(len(run))]
			probes = append(probes, Tuple{Rel: matrix.SideR, Key: tp.Key, Seq: tp.Seq})
		}
		probes = append(probes, Tuple{Rel: matrix.SideR, Key: rng.Int63n(512)}, Tuple{Rel: matrix.SideR, Key: -1})
		for _, p := range probes {
			var g, r []Tuple
			h.Probe(p, func(s Tuple) { g = append(g, s) })
			ref.Probe(p, func(s Tuple) { r = append(r, s) })
			if err := sameSeqs(g, r); err != nil {
				return fmt.Errorf("window %d, probe of key %d: %v", taken, p.Key, err)
			}
		}
		got, want = got[:0], want[:0]
		h.ProbeBatchCollect(probes, matrix.SideR, EquiJoin("eq", nil), &got)
		ref.ProbeBatchCollect(probes, matrix.SideR, EquiJoin("eq", nil), &want)
		if err := pairsMatch(got, want); err != nil {
			return fmt.Errorf("window %d, batch probe: %v", taken, err)
		}
	}
	if h.Len() != ref.Len() || h.Bytes() != ref.Bytes() {
		return fmt.Errorf("stores %d tuples (%d B), reference %d (%d B)", h.Len(), h.Bytes(), ref.Len(), ref.Bytes())
	}
	if len(h.segs) != 1 {
		return fmt.Errorf("reads %d segments, want the line's one", len(h.segs))
	}
	if live := h.segs[0].live; live == frozen {
		return fmt.Errorf("segment live = %v, want %v", live, !frozen)
	}
	return nil
}

// TestProbeSkipsEmptyOwnIndex: a store whose every window continues
// its segment leaves its own index without a key, and a probe walks the
// segment's directory alone — one per side, as the shared layout's
// joiners do — without loading a word of the own index; once the store
// copies a run, its probes walk both. Every probe matches a store that
// copies the same runs.
func TestProbeSkipsEmptyOwnIndex(t *testing.T) {
	pred := EquiJoin("eq", nil)
	rng := rand.New(rand.NewSource(58))
	stream := make([]Tuple, 3*arenaChunk)
	for i := range stream {
		stream[i] = diffTuple(rng, uint64(i+1), rng.Int63n(700))
	}
	var bw BlockWriter
	bw.Reset(2, true, 0)
	stores := []*HashIndex{NewHashIndex(), NewHashIndex()}
	ref := NewHashIndex()
	writeShared(&bw, stream, 32, func(run []Tuple, w Window) {
		for _, h := range stores {
			h.InsertWindow(run, w)
		}
		ref.InsertBatch(run)
	})
	walks := func(h *HashIndex) int {
		n := 0
		h.readers(func(slotReader) { n++ })
		return n
	}
	probes := make([]Tuple, 200)
	for i := range probes {
		probes[i] = Tuple{Rel: matrix.SideR, Key: rng.Int63n(800), Seq: uint64(1e6 + i)}
	}
	same := func(label string, h *HashIndex) {
		t.Helper()
		var got, want []Pair
		h.ProbeBatchCollect(probes, matrix.SideR, pred, &got)
		ref.ProbeBatchCollect(probes, matrix.SideR, pred, &want)
		if err := pairsMatch(got, want); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for _, p := range probes[:20] {
			var g, r []Tuple
			h.Probe(p, func(s Tuple) { g = append(g, s) })
			ref.Probe(p, func(s Tuple) { r = append(r, s) })
			if err := sameSeqs(g, r); err != nil {
				t.Fatalf("%s: probe of key %d: %v", label, p.Key, err)
			}
		}
	}
	for i, h := range stores {
		if h.own.ix.used != 0 || len(h.segs) != 1 {
			t.Fatalf("store %d: %d keys in its own index, %d segments; want none and one", i, h.own.ix.used, len(h.segs))
		}
		if n := walks(h); n != 1 {
			t.Fatalf("store %d: a probe walks %d directories, want the segment's one", i, n)
		}
		// A probe that loaded a word of the emptied directory would panic.
		saved := *h.own.ix.cur
		*h.own.ix.cur = slotDir{}
		same(fmt.Sprintf("store %d, own index emptied", i), h)
		*h.own.ix.cur = saved
		checkStore(t, fmt.Sprintf("store %d", i), h)
	}
	extra := make([]Tuple, 40)
	for i := range extra {
		extra[i] = diffTuple(rng, uint64(len(stream)+i+1), rng.Int63n(700))
	}
	stores[0].InsertBatch(extra)
	ref.InsertBatch(extra)
	if n := walks(stores[0]); n != 2 {
		t.Fatalf("after a copied run a probe walks %d directories, want the own index's and the segment's", n)
	}
	same("after a copied run", stores[0])
	checkStore(t, "after a copied run", stores[0])
}

// TestEmptySlotIndexReads: an index that holds no block yet publishes
// an empty table, so a reader made of it walks, gathers and finds
// nothing instead of dereferencing a table that was never stored.
func TestEmptySlotIndexReads(t *testing.T) {
	for _, x := range []*SlotIndex{newSlotIndex(1), newSlotIndex(4)} {
		r := x.reader(allRows, keepSet{})
		if len(r.tbl) != 0 {
			t.Fatalf("an empty index publishes %d table entries", len(r.tbl))
		}
		ps := []Tuple{{Rel: matrix.SideR, Key: 1}, {Rel: matrix.SideR, Key: -7}}
		if hits := r.walk(ps, nil); len(hits) != 0 {
			t.Fatalf("an empty index yields %d hits", len(hits))
		}
		if linked := checkIndex(t, "empty", x, allRows); linked != 0 {
			t.Fatalf("an empty index links %d rows", linked)
		}
	}
}

// TestOwnIndexNeverDrops narrows maxSlotBlocks: a line's writer past it
// drops its index, and its readers index the line's later windows in
// their own indexes, while a store's own index spans any number of
// blocks and keeps indexing every row it copies or views.
func TestOwnIndexNeverDrops(t *testing.T) {
	saved := maxSlotBlocks
	maxSlotBlocks = 2
	t.Cleanup(func() { maxSlotBlocks = saved })
	rng := rand.New(rand.NewSource(59))
	pred := EquiJoin("eq", nil)
	var bw BlockWriter
	bw.Reset(2, true, 0)
	viewer, copier, ref := NewHashIndex(), NewHashIndex(), NewHashIndex()
	stream := make([]Tuple, 6*arenaChunk)
	for i := range stream {
		stream[i] = diffTuple(rng, uint64(i+1), rng.Int63n(3000))
	}
	dropped := false
	writeShared(&bw, stream, 64, func(run []Tuple, w Window) {
		dropped = dropped || w.ix == nil
		viewer.InsertWindow(run, w)
		copier.InsertBatch(run)
		ref.InsertBatch(run)
	})
	if !dropped || bw.ix != nil {
		t.Fatal("the line's writer kept its index past maxSlotBlocks")
	}
	for _, c := range []struct {
		name string
		h    *HashIndex
	}{{"viewer", viewer}, {"copier", copier}} {
		if c.h.own.ix.nblocks <= maxSlotBlocks {
			t.Fatalf("%s: own index spans %d blocks, want more than %d", c.name, c.h.own.ix.nblocks, maxSlotBlocks)
		}
		checkStore(t, c.name, c.h)
		var got, want []Pair
		c.h.ProbeBatchCollect(stream, matrix.SideS, pred, &got)
		ref.ProbeBatchCollect(stream, matrix.SideS, pred, &want)
		if err := pairsMatch(got, want); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	if viewer.own.ix.used == 0 || len(viewer.segs) != 1 {
		t.Fatalf("viewer: %d keys in its own index over %d segments; want the line's later windows in its own index", viewer.own.ix.used, len(viewer.segs))
	}
}

// TestInterleavedBlocksShareChainColumns: windows of two lines' blocks
// and copies between them reach one store interleaved, so its own index
// enters each block many times; all entries of a block share its one
// chain column, and the store still indexes every row.
func TestInterleavedBlocksShareChainColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	var a, b BlockWriter
	a.Reset(2, false, 0)
	b.Reset(2, false, 0)
	h, ref := NewHashIndex(), NewHashIndex()
	var seq uint64
	for i := 0; i < 300; i++ {
		run := make([]Tuple, 16)
		for j := range run {
			seq++
			run[j] = diffTuple(rng, seq, rng.Int63n(500))
		}
		var w Window // every third run is a copy
		switch i % 3 {
		case 0:
			w = a.AppendRun(run)
		case 1:
			w = b.AppendRun(run)
		}
		h.InsertWindow(run, w)
		ref.InsertBatch(run)
	}
	blocks := map[*colChunk]bool{}
	for _, v := range h.arena.chunks {
		blocks[v.c] = true
	}
	if h.own.ix.nblocks <= 2*len(blocks) {
		t.Fatalf("%d index entries over %d blocks: the blocks never interleaved", h.own.ix.nblocks, len(blocks))
	}
	if cols := h.own.ix.chainBytes.Load() / chainBytes; cols != int64(len(blocks)) {
		t.Fatalf("%d chain columns for %d blocks", cols, len(blocks))
	}
	checkStore(t, "interleaved", h)
	probes := make([]Tuple, 100)
	for i := range probes {
		probes[i] = Tuple{Rel: matrix.SideR, Key: rng.Int63n(520), Seq: uint64(1e6 + i)}
	}
	var got, want []Pair
	h.ProbeBatchCollect(probes, matrix.SideR, EquiJoin("eq", nil), &got)
	ref.ProbeBatchCollect(probes, matrix.SideR, EquiJoin("eq", nil), &want)
	if err := pairsMatch(got, want); err != nil {
		t.Fatal(err)
	}
}

// sameSeqs compares two tuple multisets whose Seq values are unique.
func sameSeqs(got, want []Tuple) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d tuples, reference %d", len(got), len(want))
	}
	got = append([]Tuple(nil), got...)
	want = append([]Tuple(nil), want...)
	sort.Slice(got, func(i, j int) bool { return got[i].Seq < got[j].Seq })
	sort.Slice(want, func(i, j int) bool { return want[i].Seq < want[j].Seq })
	for i := range got {
		if !eqTuple(got[i], want[i]) {
			return fmt.Errorf("tuple %d = %+v, reference %+v", i, got[i], want[i])
		}
	}
	return nil
}

// pairsMatch compares two pair multisets by their tuples' Seq values.
func pairsMatch(got, want []Pair) error {
	if msg := exact.Diff(seqKeys(got), seqKeys(want)); msg != "" {
		return errors.New(msg)
	}
	return nil
}

// BenchmarkRowInsertProbe is the layer ledger's row of the slot index:
// the sixteen joiners of one (4,4) grid take a uniform stream (keys of
// 2^22, R and S alternating) in runs of 32 from w reshufflers, each
// with a writer per row and column slot, every run probing its
// opposite side at the four joiners of its row or column and then
// stored there — as views of the writers' blocks in both modes. In
// "own" each joiner indexes every window in its own slot index; in
// "slot" the writers index each row once and every probe reads one
// line index per reshuffler. It reports the cost of one stored
// replica, writer work included: ns/tuple of wall time and B/tuple of
// heap growth (shares of the blocks, chain links and directories).
func BenchmarkRowInsertProbe(b *testing.B) {
	for _, writers := range []int{1, 2, 4, 8, 16} {
		for _, slot := range []bool{false, true} {
			name := "own"
			if slot {
				name = "slot"
			}
			b.Run(fmt.Sprintf("%s/w=%d", name, writers), func(b *testing.B) {
				benchGridInsertProbe(b, writers, slot)
			})
		}
	}
}

func benchGridInsertProbe(b *testing.B, writers int, slot bool) {
	const side, run = 4, 32
	pred := EquiJoin("eq", nil)
	rng := rand.New(rand.NewSource(1))
	var locals [side][side]*Local
	for i := range locals {
		for j := range locals[i] {
			locals[i][j] = NewLocal(pred)
		}
	}
	stream := make([]Tuple, b.N)
	for i := range stream {
		stream[i] = Tuple{Rel: matrix.Side((i / run) % 2), Key: rng.Int63n(1 << 22), Size: 8, Seq: uint64(i + 1)}
	}
	// bws[k][rel][p] is reshuffler k's writer of row (R) or column (S) p.
	bws := make([][2][side]BlockWriter, writers)
	for k := range bws {
		for rel := range bws[k] {
			for p := range bws[k][rel] {
				bws[k][rel][p].Reset(side, slot, 0)
			}
		}
	}
	var out []Pair
	var line matrix.Side
	var p int
	store := func(r []Tuple, w Window) {
		for q := 0; q < side; q++ {
			l := locals[p][q]
			if line == matrix.SideS {
				l = locals[q][p]
			}
			out = out[:0]
			l.AddWindowCollect(r, w, &out)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i += run {
		line, p = stream[i].Rel, rng.Intn(side)
		writeShared(&bws[(i/(2*run))%writers][line][p], stream[i:min(i+run, b.N)], run, store)
	}
	elapsed := time.Since(start)
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&after)
	replicas := float64(side * b.N)
	b.ReportMetric(float64(elapsed.Nanoseconds())/replicas, "ns/tuple")
	b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/replicas, "B/tuple")
	runtime.KeepAlive(&locals)
	runtime.KeepAlive(bws)
	runtime.KeepAlive(stream)
}

// BenchmarkBandLineShare is the layer ledger's row of the line trees:
// the sixteen joiners of one (4,4) grid take a band stream (width 8,
// keys of 50 000, R and S alternating) in runs of 512, each run probing
// its opposite side at the four joiners of its row or column in
// sub-runs of 32 and then being stored by all four — into four private
// trees ("private"), or once into the line's tree, which the four read
// through their segments ("line"). It reports insert and probe time per
// input tuple; -benchtime=400000x runs the 400 k-tuple stream.
func BenchmarkBandLineShare(b *testing.B) {
	for _, shared := range []bool{false, true} {
		name := "private"
		if shared {
			name = "line"
		}
		b.Run(name, func(b *testing.B) { benchBandLines(b, shared) })
	}
}

func benchBandLines(b *testing.B, shared bool) {
	const side, run, sub, keys, width = 4, 512, 32, 50_000, 8
	pred := BandJoin("band", width, nil)
	rng := rand.New(rand.NewSource(1))
	var locals [side][side]*Local
	for i := range locals {
		for j := range locals[i] {
			locals[i][j] = NewLocal(pred)
		}
	}
	// trees[rel][p] is the tree of row (R) or column (S) p.
	var trees [2][side]*LineTree
	for rel := range trees {
		for p := range trees[rel] {
			trees[rel][p] = NewLineTree(side)
		}
	}
	stream := make([]Tuple, b.N)
	for i := range stream {
		stream[i] = Tuple{Rel: matrix.Side((i / run) % 2), Key: rng.Int63n(keys), Size: 8, Seq: uint64(i + 1)}
	}
	var out []Pair
	var insert, probe time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i += run {
		r := stream[i:min(i+run, b.N)]
		rel, p := r[0].Rel, rng.Intn(side)
		line := func(q int) *Local {
			if rel == matrix.SideS {
				return locals[q][p]
			}
			return locals[p][q]
		}
		t0 := time.Now()
		for q := 0; q < side; q++ {
			for s := 0; s < len(r); s += sub {
				out = out[:0]
				line(q).ProbeBatchCollect(r[s:min(s+sub, len(r))], &out)
			}
		}
		t1 := time.Now()
		var w Window
		if shared {
			w = trees[rel][p].Append(r)
		}
		for q := 0; q < side; q++ {
			line(q).InsertWindow(r, w)
		}
		probe += t1.Sub(t0)
		insert += time.Since(t1)
	}
	b.StopTimer()
	b.ReportMetric(float64(insert.Nanoseconds())/float64(b.N), "insert-ns/tuple")
	b.ReportMetric(float64(probe.Nanoseconds())/float64(b.N), "probe-ns/tuple")
	runtime.KeepAlive(&locals)
}
