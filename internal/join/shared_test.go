package join

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/exact"
	"repro/internal/matrix"
)

// storeShared writes ts through a BlockWriter of fan-out sharers the
// way a line's writer does — a window per run of at most batch rows,
// in a fresh block when the open one cannot take the run — and hands
// each window with its run to store.
func storeShared(ts []Tuple, sharers, batch int, store func([]Tuple, Window)) {
	var bw BlockWriter
	bw.Reset(sharers, true, 0)
	writeShared(&bw, ts, batch, store)
}

// writeShared is storeShared through a given writer.
func writeShared(bw *BlockWriter, ts []Tuple, batch int, store func([]Tuple, Window)) {
	for start := 0; start < len(ts); start += batch {
		run := ts[start:min(start+batch, len(ts))]
		store(run, bw.AppendRun(run))
	}
}

// TestSharedWindowsMatchPrivateCopies feeds one stream, payloads and
// dummies included, to several joins through shared windows — every
// join viewing the same blocks, as the joiners of a grid row do — and
// to a reference join that copies every tuple, and requires identical
// pairs from every run, identical contents, views that reference the
// writers' blocks rather than copies, and a snapshot that restores
// into dense blocks.
func TestSharedWindowsMatchPrivateCopies(t *testing.T) {
	const sharers = 4
	rng := rand.New(rand.NewSource(21))
	pred := EquiJoin("eq", nil)
	ref := NewLocal(pred)
	contents := [2]*ScanIndex{NewScanIndex(), NewScanIndex()}
	locals := make([]*Local, sharers)
	for i := range locals {
		locals[i] = NewLocal(pred)
	}
	var refOut, out []Pair
	store := func(run []Tuple, w Window) {
		refOut = refOut[:0]
		ref.AddBatchCollect(run, &refOut)
		contents[run[0].Rel].InsertBatch(run)
		for _, l := range locals {
			out = out[:0]
			l.AddWindowCollect(run, w, &out)
			comparePairs(t, refOut, out)
		}
	}
	// Same-side runs of up to 32 tuples, each side written by its own
	// slot: a run the block cannot take whole ships as two windows.
	seq := uint64(0)
	streams := [2][]Tuple{}
	for len(streams[0])+len(streams[1]) < 5000 {
		side := matrix.Side(rng.Intn(2))
		run := make([]Tuple, 1+rng.Intn(32))
		for i := range run {
			seq++
			run[i] = diffTuple(rng, seq, rng.Int63n(300))
			run[i].Rel = side
		}
		streams[side] = append(streams[side], run...)
		storeShared(run, sharers, len(run), store)
	}
	// A snapshot writes each view as a block; the restore packs the
	// short windows into dense blocks of the store's own writer.
	restored := NewLocal(pred)
	if err := loadLocal(restored, encodeLocal(locals[0])); err != nil {
		t.Fatal(err)
	}
	for _, side := range [2]matrix.Side{matrix.SideR, matrix.SideS} {
		h := restored.index(side).(*HashIndex)
		assertSameContents(t, "restored", h, contents[side])
		if need := (h.Len() + arenaChunk - 1) / arenaChunk; len(h.arena.chunks) != need {
			t.Fatalf("restored side %v into %d blocks, %d would hold it", side, len(h.arena.chunks), need)
		}
	}
	for i, l := range locals {
		for _, side := range [2]matrix.Side{matrix.SideR, matrix.SideS} {
			h := l.index(side).(*HashIndex)
			assertSameContents(t, "shared", h, contents[side])
			for _, v := range h.arena.chunks {
				if v.c.sharers != sharers {
					t.Fatalf("local %d side %v holds a copy", i, side)
				}
			}
			other := locals[0].index(side).(*HashIndex)
			if len(other.arena.chunks) != len(h.arena.chunks) {
				t.Fatalf("locals 0 and %d hold %d and %d views", i, len(other.arena.chunks), len(h.arena.chunks))
			}
			for k := range h.arena.chunks {
				// The slot index each view names is each store's own past
				// the segment bound; the rows it names are the same.
				v, o := h.arena.chunks[k], other.arena.chunks[k]
				if v.c != o.c || v.lo != o.lo || v.hi != o.hi || v.keep != o.keep {
					t.Fatalf("locals 0 and %d differ at view %d", i, k)
				}
			}
		}
	}
}

// comparePairs requires a run through windows (got) to emit the pairs,
// by member seqs, of the same run through copies (want).
func comparePairs(t *testing.T, want, got []Pair) {
	t.Helper()
	exact.Equal(t, seqKeys(got), seqKeys(want))
}

// TestMergeFromAdoptsSharedViewThenExtends covers a migration's ∆′
// store holding views of a shared block when finalization merges it:
// the state adopts the views, and the block's next window, arriving
// after the merge, extends the adopted entry instead of opening one.
func TestMergeFromAdoptsSharedViewThenExtends(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var bw BlockWriter
	bw.Reset(3, true, 0)
	seq := uint64(0)
	window := func(n int) ([]Tuple, Window) {
		run := make([]Tuple, n)
		for i := range run {
			seq++
			run[i] = Tuple{Rel: matrix.SideS, Key: rng.Int63n(40), Size: 8, Seq: seq, U: rng.Uint64()}
		}
		return run, bw.AppendRun(run)
	}
	ref := NewScanIndex()
	state := NewHashIndex()
	for i := 0; i < 700; i++ {
		seq++
		tp := Tuple{Rel: matrix.SideS, Key: rng.Int63n(40), Size: 8, Seq: seq}
		state.Insert(tp)
		ref.Insert(tp)
	}
	dp := NewHashIndex()
	for k := 0; k < 3; k++ {
		run, w := window(32)
		dp.InsertWindow(run, w)
		ref.InsertBatch(run)
	}
	state.MergeFrom(dp)
	last := state.arena.chunks[len(state.arena.chunks)-1]
	if last.c.sharers != 3 || last.lo != 0 || last.hi != 96 {
		t.Fatalf("adopted last entry %+v, want rows [0, 96) of the shared block", last)
	}
	entries := len(state.arena.chunks)
	run, w := window(32)
	state.InsertWindow(run, w)
	ref.InsertBatch(run)
	if len(state.arena.chunks) != entries || state.arena.chunks[entries-1].hi != 128 {
		t.Fatalf("the window after the merge opened an entry (%d -> %d entries)", entries, len(state.arena.chunks))
	}
	assertSameContents(t, "merged, then extended", state, ref)
}

// TestCaptureWhileOwnerAddsPayloadColumn: a store copies payload-free
// rows through its own writer, and a capture is taken; while another
// goroutine encodes the capture, the owner stores payload-carrying
// tuples, which would give the open block its payload column. The
// capture sealed the block, so they must land in a fresh block of the
// same writer — the race detector flags a header written under the
// encoder — and the encoding must equal the state at the barrier.
func TestCaptureWhileOwnerAddsPayloadColumn(t *testing.T) {
	for _, pred := range []Predicate{EquiJoin("eq", nil), ThetaJoin("any", func(r, s Tuple) bool { return true })} {
		l := NewLocal(pred)
		want := NewLocal(pred)
		for i := 0; i < 100; i++ {
			tp := Tuple{Rel: matrix.SideS, Key: int64(i % 7), Size: 8, Seq: uint64(i + 1)}
			l.Insert(tp)
			want.Insert(tp)
		}
		c, _, _ := l.Capture(nil)
		enc := make(chan []byte)
		go func() { enc <- c.AppendTo(nil, nil) }()
		for i := 100; i < 200; i++ {
			l.Insert(Tuple{Rel: matrix.SideS, Key: int64(i % 7), Size: 8, Seq: uint64(i + 1), Payload: []byte{byte(i)}})
		}
		got := NewLocal(pred)
		if err := loadLocal(got, <-enc); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeLocal(got), encodeLocal(want)) {
			t.Fatalf("%s: the capture does not encode the state at the barrier", pred.Name)
		}
		views := l.Views(matrix.SideS)
		if len(views) != 2 || views[0].Block == views[1].Block || views[0].Hi != 100 || views[1].Lo != 0 {
			t.Fatalf("%s: the store views %+v, want rows [0, 100) of one block, then a fresh one", pred.Name, views)
		}
		if views[0].Block.(*colChunk).payload != nil {
			t.Fatalf("%s: the captured block gained a payload column", pred.Name)
		}
	}
}

// TestAppendRunWindows writes random same-side runs through AppendRun,
// the way a worker's receive loop writes whole frame bodies: every run
// that fits a block lands whole in one block, row i holding run[i], a
// run continues its predecessor's block while it fits, and a payload
// run after published payload-free rows opens a fresh block. Joins fed
// the windows must emit what a join fed copies emits.
func TestAppendRunWindows(t *testing.T) {
	const sharers = 3
	rng := rand.New(rand.NewSource(23))
	pred := EquiJoin("eq", nil)
	ref := NewLocal(pred)
	locals := [sharers]*Local{NewLocal(pred), NewLocal(pred), NewLocal(pred)}
	// One writer per side, as a worker keeps one per row and column.
	var bws [2]BlockWriter
	var prevs [2]Window
	for i := range bws {
		bws[i].Reset(sharers, true, 0)
	}
	var refOut, out []Pair
	seq := uint64(0)
	for k := 0; k < 400; k++ {
		n := 1 + rng.Intn(48)
		if rng.Intn(40) == 0 {
			n = arenaChunk
		}
		side := matrix.Side(rng.Intn(2))
		bw, prev := &bws[side], &prevs[side]
		run := make([]Tuple, n)
		payload := false
		for i := range run {
			seq++
			run[i] = diffTuple(rng, seq, rng.Int63n(200))
			run[i].Rel = side
			if k%2 == 0 {
				run[i].Payload = nil
			}
			payload = payload || run[i].Payload != nil
		}
		w := bw.AppendRun(run)
		switch {
		case w.Len() != n:
			t.Fatalf("run %d of %d rows got a window of %d", k, n, w.Len())
		case prev.c != nil && w.c == prev.c && w.lo != prev.hi:
			t.Fatalf("run %d starts at row %d of its block, previous window ended at %d", k, w.lo, prev.hi)
		case prev.c != nil && w.c != prev.c && int(prev.hi)+n <= arenaChunk && (!payload || prev.c.payload != nil):
			t.Fatalf("run %d of %d rows opened a block while the open one had room", k, n)
		case w.c.sharers != sharers:
			t.Fatalf("run %d landed in a block of fan-out %d, want %d", k, w.c.sharers, sharers)
		}
		for i := 0; i < w.Len(); i++ {
			if got := w.c.at(w.lo + int32(i)); !reflect.DeepEqual(got, run[i]) {
				t.Fatalf("run %d row %d holds %+v, want %+v", k, i, got, run[i])
			}
		}
		*prev = w
		refOut = refOut[:0]
		ref.AddBatchCollect(run, &refOut)
		for _, l := range locals {
			out = out[:0]
			l.AddWindowCollect(run, w, &out)
			comparePairs(t, refOut, out)
		}
	}
}

// TestEveryViewIsAWriterWindow drives a hash-indexed and a
// scan-indexed join through every way rows enter a store — runs with
// and without windows, a run longer than a block, single inserts,
// Retain, in-process and decoded migration blocks, MergeFrom and a
// snapshot restore — and requires every arena entry of the result, and
// of its restore, to be a non-empty view of a block a BlockWriter
// wrote (Sharers >= 1), over exactly the tuples stored.
func TestEveryViewIsAWriterWindow(t *testing.T) {
	near := ThetaJoin("near", func(r, s Tuple) bool { return r.Key-s.Key < 3 && s.Key-r.Key < 3 })
	for _, pred := range []Predicate{EquiJoin("eq", nil), near} {
		rng := rand.New(rand.NewSource(97))
		seq := uint64(0)
		want := map[uint64]bool{}
		// stream returns n fresh tuples of side, counted as stored when
		// keep holds their u.
		stream := func(side matrix.Side, n int, keep matrix.Top) []Tuple {
			ts := make([]Tuple, n)
			for i := range ts {
				seq++
				ts[i] = diffTuple(rng, seq, rng.Int63n(50))
				ts[i].Rel = side
				want[seq] = keep.Has(ts[i].U)
			}
			return ts
		}
		// Retain keeps the S tuples stored before it whose top u bit is 1.
		retained := matrix.Top{Shift: 63, Val: 1}
		l := NewLocal(pred)
		var out []Pair
		l.AddBatchCollect(stream(matrix.SideS, arenaChunk+77, retained), &out)
		for _, tp := range stream(matrix.SideR, 40, matrix.TopAll) {
			tp.Payload = nil
			l.Insert(tp)
		}
		// A capture seals the own writer's block, which has no payload
		// column: a run whose payloads start past its first row must
		// still land at consecutive offsets.
		l.Capture(nil)
		late := stream(matrix.SideR, 60, matrix.TopAll)
		for i := range late {
			late[i].Payload = nil
			if i >= 30 {
				late[i].Payload = []byte{byte(i)}
			}
		}
		l.AddBatchCollect(late, &out)
		storeShared(stream(matrix.SideR, 300, matrix.TopAll), 3, 32, func(run []Tuple, w Window) {
			l.AddWindowCollect(run, w, &out)
		})
		mismatched := stream(matrix.SideS, 20, retained)
		var bw BlockWriter
		bw.Reset(2, false, 0)
		l.InsertWindow(mismatched, bw.AppendRun(mismatched[:10]))
		l.Retain(matrix.SideS, retained)

		// Migration blocks: the selection of the donor's tuples whose top
		// u bit is 0, R handed over in process, S across a link.
		selected := matrix.Top{Shift: 63, Val: 0}
		donor := NewLocal(pred)
		for _, side := range [2]matrix.Side{matrix.SideR, matrix.SideS} {
			donor.InsertBatch(stream(side, 600, selected))
		}
		var enc BlockEncoder
		donor.SelectInto(matrix.SideR, selected, &enc, 1<<20, func() {})
		l.AdoptBlocks(enc.Seal())
		donor.SelectInto(matrix.SideS, selected, &enc, 1<<20, func() {})
		bs, err := DecodeBlocks(enc.AppendTo(nil))
		if err != nil {
			t.Fatal(err)
		}
		l.AdoptBlocks(bs)

		merged := NewLocal(pred)
		for _, side := range [2]matrix.Side{matrix.SideR, matrix.SideS} {
			merged.InsertBatch(stream(side, 200, matrix.TopAll))
		}
		l.MergeFrom(merged)
		restored := NewLocal(pred)
		if err := loadLocal(restored, encodeLocal(l)); err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]*Local{"built": l, "restored": restored} {
			for _, side := range [2]matrix.Side{matrix.SideR, matrix.SideS} {
				for _, v := range got.Views(side) {
					if v.Sharers < 1 || v.Lo >= v.Hi || v.Hi > arenaChunk {
						t.Fatalf("%s %s: side %v views %+v, want a non-empty window of a writer's block", pred.Name, name, side, v)
					}
				}
				if h, ok := got.index(side).(*HashIndex); ok {
					checkStore(t, name, h)
				}
			}
			seen := map[uint64]bool{}
			for _, side := range [2]matrix.Side{matrix.SideR, matrix.SideS} {
				got.Scan(side, func(tp Tuple) bool { seen[tp.Seq] = true; return true })
			}
			for s, stored := range want {
				if seen[s] != stored {
					t.Fatalf("%s %s: tuple %d stored %v, want %v", pred.Name, name, s, seen[s], stored)
				}
			}
			if n := got.TotalLen(); n != len(seen) {
				t.Fatalf("%s %s: %d stored rows over %d distinct tuples", pred.Name, name, n, len(seen))
			}
		}
	}
}
