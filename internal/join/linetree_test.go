package join

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/matrix"
)

// TestLineTreeAsOf is TestSlotIndexAsOf's counterpart for band lines:
// one writer appends random runs into a LineTree — hot keys whose ties
// span leaf splits, far keys, payloads and dummies — and pushes each
// window to three readers, running up to an inbox ahead of them, so
// every read meets rows at and past the reader's watermark and leaves
// reshaped under it. Each reader stores the windows it takes into an
// OrderedIndex, and copies of the same runs into a reference that
// inserts them into its own tree; after every window both must give the
// same pairs to batch probes (the residual-free sweep and the residual
// one) and to callback probes, and the same Len and Bytes, and every so
// often the same Scan — key order, ties in insertion order — and the
// same snapshot record, byte for byte. Reader 0 takes every window;
// reader 1 takes gaps — a window it never gets, or a run a replay
// filter shortened and stored as a copy — which fold its segment into
// its own tree; reader 2 is slow, so the writer runs up to its inbox's
// depth ahead of it. At the end reader 0 must still read the line's
// tree over an empty own tree, and reader 1, after a gap, none.
func TestLineTreeAsOf(t *testing.T) {
	const readers, windows, width = 3, 600, 3
	lt := NewLineTree(readers)
	chans := make([]chan slotMsg, readers)
	for i := range chans {
		chans[i] = make(chan slotMsg, 256)
	}
	rows := 0
	go func() {
		rng := rand.New(rand.NewSource(91))
		var seq uint64
		for k := 0; k < windows; k++ {
			run := make([]Tuple, 1+rng.Intn(64))
			for i := range run {
				seq++
				key := int64(rng.Intn(2000))
				switch rng.Intn(10) {
				case 0:
					key = int64(rng.Intn(8)) * 5 // a hot key: ties span leaves
				case 1:
					key = rng.Int63n(1 << 30)
				}
				run[i] = diffTuple(rng, seq, key)
			}
			w := lt.Append(run)
			rows += len(run)
			for _, c := range chans {
				c <- slotMsg{run, w}
			}
		}
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
			errs[id] = readTreeWindows(id, width, chans[id])
			for range chans[id] {
				// A reader that failed drains its channel, so the writer
				// is not left blocked.
			}
		}(id)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", id, err)
		}
	}
	if lt.t.n != rows || lt.end != uint32(rows) {
		t.Fatalf("the line tree holds %d rows up to position %d, the writer appended %d", lt.t.n, lt.end, rows)
	}
}

// readTreeWindows is one reader of TestLineTreeAsOf (see there).
func readTreeWindows(id int, width int64, in <-chan slotMsg) error {
	rng := rand.New(rand.NewSource(int64(200 + id)))
	o, ref := NewOrderedIndex(width), NewOrderedIndex(width)
	preds := []Predicate{
		BandJoin("band", width, nil),
		BandJoin("band-residual", width, func(r, s Tuple) bool { return (r.Aux^s.Aux)&1 == 0 }),
	}
	taken, gap := 0, false
	var got, want []Pair
	for m := range in {
		run, w := m.run, m.w
		if id == 1 && taken > 10 {
			switch rng.Intn(60) {
			case 0:
				gap = true
				continue // a window this reader never gets
			case 1:
				if len(run) > 1 {
					// A replay filter dropped a tuple: the rest is
					// stored as a copy.
					drop := rng.Intn(len(run))
					run = append(append([]Tuple(nil), run[:drop]...), run[drop+1:]...)
					w = Window{}
					gap = true
				}
			}
		}
		o.InsertWindow(run, w)
		ref.InsertBatch(run)
		taken++
		if id == 2 && taken%32 == 0 {
			time.Sleep(100 * time.Microsecond)
		}

		probes := make([]Tuple, 0, 6)
		for i := 0; i < 4; i++ {
			tp := &run[rng.Intn(len(run))]
			probes = append(probes, Tuple{Rel: matrix.SideR, Key: tp.Key + rng.Int63n(2*width+1) - width, Aux: rng.Int63(), Seq: uint64(1e9 + i)})
		}
		probes = append(probes, Tuple{Rel: matrix.SideR, Key: rng.Int63n(2000)}, Tuple{Rel: matrix.SideR, Key: -100})
		for _, p := range preds {
			got, want = got[:0], want[:0]
			o.ProbeBatchCollect(probes, matrix.SideR, p, &got)
			ref.ProbeBatchCollect(probes, matrix.SideR, p, &want)
			if err := pairsMatch(got, want); err != nil {
				return fmt.Errorf("window %d, %s batch probe: %v", taken, p.Name, err)
			}
		}
		for _, p := range probes[:2] {
			var g, r []Tuple
			o.Probe(p, func(s Tuple) { g = append(g, s) })
			ref.Probe(p, func(s Tuple) { r = append(r, s) })
			if err := sameSeqs(g, r); err != nil {
				return fmt.Errorf("window %d, probe of key %d: %v", taken, p.Key, err)
			}
		}
		if o.Len() != ref.Len() || o.Bytes() != ref.Bytes() {
			return fmt.Errorf("window %d: stores %d tuples (%d B), reference %d (%d B)", taken, o.Len(), o.Bytes(), ref.Len(), ref.Bytes())
		}
		if taken%50 == 0 {
			if err := sameScan(o, ref); err != nil {
				return fmt.Errorf("window %d: %v", taken, err)
			}
		}
	}
	if err := sameScan(o, ref); err != nil {
		return err
	}
	switch {
	case id != 1 && (o.line == nil || o.n != 0):
		return fmt.Errorf("reads a segment %v over %d rows of its own tree, want the line's over none", o.line != nil, o.n)
	case gap && o.line != nil:
		return fmt.Errorf("still reads the line's tree after a gap")
	}
	return nil
}

// sameScan requires o and ref to Scan the same tuples in the same order
// and to encode to the same snapshot record.
func sameScan(o, ref *OrderedIndex) error {
	var got, want []Tuple
	o.Scan(func(tp Tuple) bool { got = append(got, tp); return true })
	ref.Scan(func(tp Tuple) bool { want = append(want, tp); return true })
	if len(got) != len(want) {
		return fmt.Errorf("Scan visits %d tuples, reference %d", len(got), len(want))
	}
	for i := range got {
		if !eqTuple(got[i], want[i]) {
			return fmt.Errorf("Scan position %d = %+v, reference %+v", i, got[i], want[i])
		}
	}
	if !bytes.Equal(appendOrdered(nil, o), appendOrdered(nil, ref)) {
		return fmt.Errorf("snapshot record differs from the reference's")
	}
	return nil
}

// TestLineTreeStateMovement holds the bulk paths of a store that reads
// a line's tree to a store that inserted the same runs itself: Retain
// (removing half, and nothing), MergeFrom in both directions and the
// migration selection each fold the segment into the own tree first
// and leave the same tuples, in the same Scan order, as the reference.
// A line past maxLineRows publishes zero windows, and its readers fold.
func TestLineTreeStateMovement(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	stream := make([]Tuple, 3000)
	for i := range stream {
		stream[i] = diffTuple(rng, uint64(i+1), int64(rng.Intn(150)))
	}
	build := func() (*OrderedIndex, *OrderedIndex) {
		lt := NewLineTree(2)
		o, ref := NewOrderedIndex(2), NewOrderedIndex(2)
		ref.InsertBatch(stream[:100])
		o.InsertBatch(stream[:100]) // a restored prefix: own rows before the line's
		for i := 100; i < len(stream); i += 40 {
			run := stream[i:min(i+40, len(stream))]
			o.InsertWindow(run, lt.Append(run))
			ref.InsertBatch(run)
		}
		if o.line == nil || o.n != 100 {
			t.Fatalf("store reads segment %v over %d own rows, want the line's over 100", o.line != nil, o.n)
		}
		return o, ref
	}
	folded := func(label string, o, ref *OrderedIndex) {
		t.Helper()
		if o.line != nil {
			t.Fatalf("%s: the store still reads the line's tree", label)
		}
		if err := sameScan(o, ref); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if o.Len() != ref.Len() || o.Bytes() != ref.Bytes() {
			t.Fatalf("%s: %d tuples (%d B), reference %d (%d B)", label, o.Len(), o.Bytes(), ref.Len(), ref.Bytes())
		}
		checkTree(t, label, o)
	}

	for _, keep := range []matrix.Top{{Shift: 63, Val: 1}, matrix.TopAll} {
		o, ref := build()
		if got, want := o.Retain(keep), ref.Retain(keep); got != want {
			t.Fatalf("Retain(%v) removed %d, reference %d", keep, got, want)
		}
		folded(fmt.Sprintf("Retain(%v)", keep), o, ref)
	}
	for _, into := range []bool{false, true} {
		o, ref := build()
		dst, dstRef := NewOrderedIndex(2), NewOrderedIndex(2)
		dst.InsertBatch(stream[:50])
		dstRef.InsertBatch(stream[:50])
		if into {
			// The store is the destination: its rows precede the donor's.
			o.MergeFrom(dst)
			ref.MergeFrom(dstRef)
			folded("MergeFrom into", o, ref)
		} else {
			dst.MergeFrom(o)
			dstRef.MergeFrom(ref)
			folded("MergeFrom from", dst, dstRef)
		}
	}
	o, ref := build()
	var e, eRef BlockEncoder
	keep := matrix.Top{Shift: 63, Val: 0}
	if got, want := e.addSelected(o, matrix.SideS, keep, 1<<20, func() {}), eRef.addSelected(ref, matrix.SideS, keep, 1<<20, func() {}); got != want {
		t.Fatalf("selection copied %d tuples, reference %d", got, want)
	}
	if !bytes.Equal(e.AppendTo(nil), eRef.AppendTo(nil)) {
		t.Fatal("selected blocks differ from the reference's")
	}
	folded("selection", o, ref)

	old := maxLineRows
	maxLineRows = 100
	defer func() { maxLineRows = old }()
	lt := NewLineTree(2)
	o, ref = NewOrderedIndex(2), NewOrderedIndex(2)
	for i := 0; i < 400; i += 40 {
		run := stream[i : i+40]
		o.InsertWindow(run, lt.Append(run))
		ref.InsertBatch(run)
	}
	if lt.end != 80 {
		t.Fatalf("a line bounded at 100 rows took %d", lt.end)
	}
	folded("past maxLineRows", o, ref)
}
