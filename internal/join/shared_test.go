package join

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/matrix"
)

// storeShared writes ts through a BlockWriter of fan-out sharers the
// way a reshuffler slot does — windows of at most batch rows, a window
// shipped early when the block cannot take the next tuple — and hands
// each window with its run to store.
func storeShared(ts []Tuple, sharers, batch int, store func([]Tuple, Window)) {
	var bw BlockWriter
	bw.Reset(sharers, true)
	writeShared(&bw, ts, batch, store)
}

// writeShared is storeShared through a given writer.
func writeShared(bw *BlockWriter, ts []Tuple, batch int, store func([]Tuple, Window)) {
	start := 0
	for i := range ts {
		if i > start && (!bw.Fits(&ts[i]) || i-start == batch) {
			store(ts[start:i], bw.Window())
			start = i
		}
		bw.Append(&ts[i])
	}
	if start < len(ts) {
		store(ts[start:], bw.Window())
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
	// short windows back into dense private blocks.
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
					t.Fatalf("local %d side %v holds a private block", i, side)
				}
			}
			other := locals[0].index(side).(*HashIndex)
			if len(other.arena.chunks) != len(h.arena.chunks) {
				t.Fatalf("locals 0 and %d hold %d and %d views", i, len(other.arena.chunks), len(h.arena.chunks))
			}
			for k := range h.arena.chunks {
				if h.arena.chunks[k] != other.arena.chunks[k] {
					t.Fatalf("locals 0 and %d differ at view %d", i, k)
				}
			}
		}
	}
}

// comparePairs requires two runs' pair lists to hold the same pairs.
func comparePairs(t *testing.T, want, got []Pair) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("run emitted %d pairs through a window, %d through copies", len(got), len(want))
	}
	count := map[[2]uint64]int{}
	for _, p := range want {
		count[[2]uint64{p.R.Seq, p.S.Seq}]++
	}
	for _, p := range got {
		k := [2]uint64{p.R.Seq, p.S.Seq}
		if count[k] == 0 {
			t.Fatalf("window run emitted pair %v not in the copy run", k)
		}
		count[k]--
	}
}

// TestMergeFromAdoptsSharedViewThenExtends covers a migration's ∆′
// store holding views of a shared block when finalization merges it:
// the state adopts the views, and the block's next window, arriving
// after the merge, extends the adopted entry instead of opening one.
func TestMergeFromAdoptsSharedViewThenExtends(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var bw BlockWriter
	bw.Reset(3, true)
	seq := uint64(0)
	window := func(n int) ([]Tuple, Window) {
		run := make([]Tuple, n)
		for i := range run {
			seq++
			run[i] = Tuple{Rel: matrix.SideS, Key: rng.Int63n(40), Size: 8, Seq: seq, U: rng.Uint64()}
			bw.Append(&run[i])
		}
		return run, bw.Window()
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

// TestCaptureWhileOwnerAddsPayloadColumn encodes a capture on another
// goroutine while the owner keeps appending to the open private tail
// it captured, the first of them a payload-carrying tuple that gives
// the block its payload column. The capture must hold a copy of that
// block (the race detector flags a capture that shares its header) and
// encode exactly the tuples stored at the barrier.
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
		go func() { enc <- c.AppendTo(nil) }()
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
	}
}

// TestAppendRunWindows writes random same-side runs through AppendRun,
// the way a worker's receive loop writes whole frame bodies: every run
// that fits a block lands whole in one block, row i holding run[i], a
// run continues its predecessor's block while it fits, a payload run
// after published payload-free rows opens a fresh block, and a run
// longer than a block gets the zero Window. Joins fed the windows must
// emit what a join fed copies emits.
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
		bws[i].Reset(sharers, true)
	}
	var refOut, out []Pair
	seq := uint64(0)
	for k := 0; k < 400; k++ {
		n := 1 + rng.Intn(48)
		switch rng.Intn(40) {
		case 0:
			n = arenaChunk + 1 + rng.Intn(64)
		case 1:
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
		case n > arenaChunk:
			if w != (Window{}) {
				t.Fatalf("run %d of %d rows got window %+v, want the zero Window", k, n, w)
			}
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
		if w.c != nil {
			*prev = w
		}
		refOut = refOut[:0]
		ref.AddBatchCollect(run, &refOut)
		for _, l := range locals {
			out = out[:0]
			l.AddWindowCollect(run, w, &out)
			comparePairs(t, refOut, out)
		}
	}
	for _, side := range [2]matrix.Side{matrix.SideR, matrix.SideS} {
		for _, v := range locals[0].Views(side) {
			if v.Sharers == 0 {
				return
			}
		}
	}
	t.Fatal("the runs longer than a block left no private copy")
}
