package join

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// lineStores writes ts through one line writer of fan-out readers, in
// windows of 64, into that many fresh hash stores, which each read the
// line through a segment, and returns them.
func lineStores(ts []Tuple, readers int) []*HashIndex {
	hs := make([]*HashIndex, readers)
	for i := range hs {
		hs[i] = NewHashIndex()
	}
	var bw BlockWriter
	bw.Reset(readers, true, 0)
	writeShared(&bw, ts, 64, func(run []Tuple, w Window) {
		for _, h := range hs {
			h.InsertWindow(run, w)
		}
	})
	return hs
}

// filterStream draws n S tuples from seq on, keys over keys, with U
// spread by the sequence number, a payload on every seventh.
func filterStream(rng *rand.Rand, seq *uint64, n int, keys int64) []Tuple {
	ts := make([]Tuple, n)
	for i := range ts {
		*seq++
		ts[i] = Tuple{Rel: matrix.SideS, Key: rng.Int63n(keys), Aux: int64(*seq), Size: 8, Seq: *seq, U: hashKey(int64(*seq))}
		if *seq%7 == 0 {
			ts[i].Payload = []byte{byte(*seq), byte(*seq >> 8)}
		}
	}
	return ts
}

// keepOnly returns the tuples of ts whose u keep holds.
func keepOnly(ts []Tuple, keep matrix.Top) []Tuple {
	var out []Tuple
	for _, t := range ts {
		if keep.Has(t.U) {
			out = append(out, t)
		}
	}
	return out
}

// TestRetainNarrowsFilters: a migration discard on a store that reads
// a shared line copies nothing. Every view keeps its block and rows with
// a narrowed filter (no view of a block of the store's own writer
// appears), the segment narrows its keep and takes no more windows, and
// the store's own index, which held rows the discard cut, becomes a
// frozen, filtered segment beside an empty own index. Scan, probes, Len
// and Bytes then see exactly the kept rows, mutGen moves, and a
// snapshot writes the kept rows only — never a reference into the
// shared block — and restores them.
func TestRetainNarrowsFilters(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var seq uint64
	lineRows := filterStream(rng, &seq, 3000, 500)
	hs := lineStores(lineRows, 2)
	h := hs[0]
	copied := filterStream(rng, &seq, 700, 500) // into the own index
	h.InsertBatch(copied)
	all := append(append([]Tuple(nil), lineRows...), copied...)
	views, gen := len(h.arena.chunks), h.arena.mutGen

	keep := matrix.Top{Shift: 63, Val: 1}
	want := keepOnly(all, keep)
	if removed := h.Retain(keep); removed != len(all)-len(want) {
		t.Fatalf("Retain removed %d, want %d", removed, len(all)-len(want))
	}
	if h.arena.mutGen != gen+1 {
		t.Fatalf("mutGen %d after a discard, want %d", h.arena.mutGen, gen+1)
	}
	if len(h.arena.chunks) > views {
		t.Fatalf("%d views after the discard, %d before: it copied", len(h.arena.chunks), views)
	}
	narrowed := 0
	for _, v := range h.arena.chunks {
		if !v.keep.all() {
			narrowed++
		}
	}
	if narrowed == 0 {
		t.Fatal("no view carries a filter")
	}
	if h.own.ix.used != 0 || len(h.segs) != 2 {
		t.Fatalf("own index of %d keys and %d segments, want an empty one beside the line's and the frozen own", h.own.ix.used, len(h.segs))
	}
	for i, s := range h.segs {
		if s.live || s.filter == nil || s.keep != keepOf(keep) {
			t.Fatalf("segment %d: live %v, filter %v, keep %+v; want frozen, filtered, keep %+v", i, s.live, s.filter != nil, s.keep, keep)
		}
	}
	checkContents(t, retainStates()[0], "after Retain", h, want)

	// The other reader keeps the line unfiltered and reads every row.
	other := hs[1]
	if other.Len() != len(lineRows) || other.segs[0].keep != (keepSet{}) {
		t.Fatalf("the other reader holds %d rows (keep %+v), want all %d", other.Len(), other.segs[0].keep, len(lineRows))
	}

	// A snapshot writes the kept rows: its block table names no block of
	// a filtered view, and the payload restores the kept contents.
	c, _, _ := (&Local{pred: EquiJoin("eq", nil), r: NewHashIndex(), s: h}).Capture(nil)
	c2, _, _ := (&Local{pred: EquiJoin("eq", nil), r: NewHashIndex(), s: other}).Capture(nil)
	tbl := NewBlockTable([]*LocalCapture{&c, &c2}, false)
	for i, v := range c.s.chunks {
		if refs := tbl.shipped(&c.s); refs != nil && refs[i] >= 0 && !v.keep.all() {
			t.Fatalf("filtered view %d is written as a table reference", i)
		}
	}
	// The sizes, taken from the views' kept-row counts with no u read,
	// are what the encoder writes.
	for _, tc := range []struct {
		name      string
		size, got int
	}{
		{"Size, tabled", c.Size(tbl), len(c.AppendTo(nil, tbl))},
		{"Size", c.Size(nil), len(c.AppendTo(nil, nil))},
		{"FullSize", c.FullSize(nil), len(c.AppendTo(nil, nil))},
	} {
		if tc.size != tc.got {
			t.Fatalf("%s reports %d bytes, the capture writes %d", tc.name, tc.size, tc.got)
		}
	}
	restored := NewLocal(EquiJoin("eq", nil))
	if err := loadLocal(restored, c.AppendTo(nil, nil)); err != nil {
		t.Fatal(err)
	}
	checkContents(t, retainStates()[0], "restored", restored.s.(*HashIndex), want)
}

// TestMergeFromHandsOverIndexes: finalize's merges re-index nothing. µ's
// own index joins the state as a frozen segment, ∆′'s live segment on
// the new line joins as it is, and the state then continues that line:
// the line's next window extends the segment, and the state's own index
// stays empty. Probes, Scan, Len and Bytes see every row once.
func TestMergeFromHandsOverIndexes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var seq uint64
	old := filterStream(rng, &seq, 2000, 400)
	state := lineStores(old, 2)[0]
	keep := matrix.Top{Shift: 63, Val: 0}
	state.Retain(keep)
	want := keepOnly(old, keep)

	mu := NewHashIndex()
	moved := filterStream(rng, &seq, 600, 400)
	mu.InsertBatch(moved)
	want = append(want, moved...)
	muIx := mu.own.ix

	// ∆′ and one more reader take the new line's windows.
	dp, peer := NewHashIndex(), NewHashIndex()
	var bw BlockWriter
	bw.Reset(2, true, 0)
	fresh := filterStream(rng, &seq, 900, 400)
	writeShared(&bw, fresh[:500], 50, func(run []Tuple, w Window) {
		dp.InsertWindow(run, w)
		peer.InsertWindow(run, w)
	})
	lineIx := bw.ix
	want = append(want, fresh[:500]...)

	ownKeys, ownBlocks := state.own.ix.used, state.own.ix.nblocks
	state.MergeFrom(mu)
	state.MergeFrom(dp)
	if state.own.ix.used != ownKeys || state.own.ix.nblocks != ownBlocks {
		t.Fatalf("own index went %d -> %d keys, %d -> %d blocks: the merge re-indexed", ownKeys, state.own.ix.used, ownBlocks, state.own.ix.nblocks)
	}
	if state.segmentOf(muIx) == nil {
		t.Fatal("µ's own index is not among the state's segments")
	}
	s := state.segmentOf(lineIx)
	if s == nil || !s.live {
		t.Fatal("∆′'s live segment on the new line did not carry over")
	}
	checkContents(t, retainStates()[0], "merged", state, want)

	writeShared(&bw, fresh[500:], 50, func(run []Tuple, w Window) {
		state.InsertWindow(run, w)
		peer.InsertWindow(run, w)
	})
	want = append(want, fresh[500:]...)
	if state.own.ix.used != ownKeys || !state.segmentOf(lineIx).live {
		t.Fatalf("the new line's later windows went to the own index (%d keys)", state.own.ix.used)
	}
	checkContents(t, retainStates()[0], "continued", state, want)
}

// TestCompactionBoundsIndexesAndGarbage runs a store through twelve
// migrations' worth of discards and merges, each epoch's arrivals on a
// line of their own and µ a copied batch, and checks after each
// finalize that a probe walks at most maxDirs slot indexes, that the
// slot index a compaction built holds no sparse view (each of its views
// keeps at least half of its share of its block's rows: the copies
// took the others), and the contents.
func TestCompactionBoundsIndexesAndGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var seq uint64
	var want []Tuple
	state := NewHashIndex()
	tops := []matrix.Top{{Shift: 63, Val: 1}, matrix.TopAll, {Shift: 62, Val: 3}, matrix.TopAll, {Shift: 61, Val: 6}, matrix.TopAll}
	compactions := 0
	for epoch := 0; epoch < 12; epoch++ {
		// The epoch's arrivals on a line of two readers: the state's
		// (through ∆′ after the first epoch) and one more.
		dp := state
		if epoch > 0 {
			dp = NewHashIndex()
		}
		var bw BlockWriter
		bw.Reset(2, true, 0)
		arrivals := filterStream(rng, &seq, 400+rng.Intn(800), 600)
		writeShared(&bw, arrivals, 64, func(run []Tuple, w Window) { dp.InsertWindow(run, w) })
		if epoch == 0 {
			want = arrivals
			continue
		}
		// The discard cuts the old epochs' rows, not ∆′'s.
		keep := tops[epoch%len(tops)]
		state.Retain(keep)
		want = append(keepOnly(want, keep), arrivals...)
		mu := NewHashIndex()
		moved := filterStream(rng, &seq, 100+rng.Intn(300), 600)
		mu.InsertBatch(moved)
		want = append(want, moved...)

		known := map[*SlotIndex]bool{mu.own.ix: true}
		for _, h := range []*HashIndex{state, dp} {
			for _, s := range h.segs {
				known[s.ix] = true
			}
		}
		state.MergeFrom(mu)
		state.MergeFrom(dp)
		label := fmt.Sprintf("epoch %d", epoch)
		if state.dirs() > maxDirs {
			t.Fatalf("%s: a probe walks %d slot indexes, bound %d", label, state.dirs(), maxDirs)
		}
		for _, s := range state.segs {
			if known[s.ix] {
				continue
			}
			compactions++
			for i := range state.arena.chunks {
				if v := &state.arena.chunks[i]; v.ix == s.ix && v.sparse() {
					t.Fatalf("%s: view %d of the compacted index keeps %d of %d rows", label, i, v.kept(), v.hi-v.lo)
				}
			}
		}
		checkContents(t, retainStates()[0], label, state, want)
	}
	if compactions == 0 {
		t.Fatal("no merge compacted the store")
	}
}

// TestFrozenLineFilterSharedAcrossReaders: four stores read one line
// from goroutines of their own, as a grid row's joiners do, each taking
// the line's windows from a channel, and each freezes its segment
// (Retain) after a different number of them while the writer goes on
// writing for the others. A reader builds the line's tag filter or
// shares one built at or past its watermark; either way every store
// must then probe exactly the rows it took and kept. The race detector
// watches the filter's hand-over and the writer's directory growth
// against the readers' freezes and probes.
func TestFrozenLineFilterSharedAcrossReaders(t *testing.T) {
	const readers = 4
	rng := rand.New(rand.NewSource(8))
	var seq uint64
	ts := filterStream(rng, &seq, 6000, 3000)
	type win struct {
		run []Tuple
		w   Window
	}
	chans := make([]chan win, readers)
	for i := range chans {
		chans[i] = make(chan win, 128)
	}
	keeps := []matrix.Top{matrix.TopAll, {Shift: 63, Val: 0}, {Shift: 63, Val: 1}, matrix.TopAll}
	stops := []int{20, 40, 60, 94} // windows each reader takes before it freezes
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		go func(i int) {
			h := NewHashIndex()
			var took []Tuple
			for n := 0; n < stops[i]; n++ {
				m := <-chans[i]
				h.InsertWindow(m.run, m.w)
				took = append(took, m.run...)
			}
			go func() { // drain the rest of the line
				for range chans[i] {
				}
			}()
			h.Retain(keeps[i])
			want := keepOnly(took, keeps[i])
			byKey := map[int64]int{}
			for _, tp := range want {
				byKey[tp.Key]++
			}
			ps := make([]Tuple, 0, 3000)
			for k := int64(0); k < 3000; k++ {
				ps = append(ps, Tuple{Rel: matrix.SideR, Key: k, Size: 8})
			}
			var out []Pair
			h.ProbeBatchCollect(ps, matrix.SideR, EquiJoin("eq", nil), &out)
			got := map[int64]int{}
			for _, pr := range out {
				got[pr.S.Key]++
			}
			if h.Len() != len(want) || len(out) != len(want) {
				errs <- fmt.Errorf("reader %d: holds %d, probes matched %d, want %d", i, h.Len(), len(out), len(want))
				return
			}
			for k, n := range byKey {
				if got[k] != n {
					errs <- fmt.Errorf("reader %d: key %d matched %d rows, want %d", i, k, got[k], n)
					return
				}
			}
			errs <- nil
		}(i)
	}
	var bw BlockWriter
	bw.Reset(readers, true, 0)
	writeShared(&bw, ts, 64, func(run []Tuple, w Window) {
		for _, c := range chans {
			c <- win{run, w}
		}
	})
	for _, c := range chans {
		close(c)
	}
	for i := 0; i < readers; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestMergeWithLiveSegmentsOnly: a store that reads more than maxDirs
// live lines leaves a merge with nothing to fold, whether the donor is
// empty (no frozen segment at all, so the compaction has no row counts
// to compare) or brings one frozen own index. The merges keep the
// store's segments live, and the store holds every row once.
func TestMergeWithLiveSegmentsOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var seq uint64
	h := NewHashIndex()
	var want []Tuple
	for line := 0; line <= maxDirs; line++ {
		ts := filterStream(rng, &seq, 300, 200)
		var bw BlockWriter
		bw.Reset(2, true, 0)
		writeShared(&bw, ts, 64, func(run []Tuple, w Window) { h.InsertWindow(run, w) })
		want = append(want, ts...)
	}
	h.MergeFrom(NewHashIndex())
	mu := NewHashIndex()
	moved := filterStream(rng, &seq, 100, 200)
	mu.InsertBatch(moved)
	want = append(want, moved...)
	h.MergeFrom(mu)
	live := 0
	for _, s := range h.segs {
		if s.live {
			live++
		}
	}
	if live != maxDirs+1 {
		t.Fatalf("%d live segments after the merge, want %d", live, maxDirs+1)
	}
	checkContents(t, retainStates()[0], "merged", h, want)
}
