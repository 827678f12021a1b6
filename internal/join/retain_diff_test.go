package join

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// randomTop draws a migration filter: the whole space a quarter of the
// time (the no-rebuild fast path), else a random partition of the top
// one to three bits of u.
func randomTop(rng *rand.Rand) matrix.Top {
	if rng.Intn(4) == 0 {
		return matrix.TopAll
	}
	k := uint(1 + rng.Intn(3))
	return matrix.Top{Shift: 64 - k, Val: rng.Uint64() >> (64 - k)}
}

// scanSelect is the reference the u-column paths are held to: Scan
// plus a keep(Tuple) test, the way Retain and the migration selection
// read stored state before they read the u column alone. It returns the
// survivors in Scan order.
func scanSelect(idx Index, keep matrix.Top) []Tuple {
	var kept []Tuple
	idx.Scan(func(tp Tuple) bool {
		if keep.Has(tp.U) {
			kept = append(kept, tp)
		}
		return true
	})
	return kept
}

// retainRef applies keep to a scan-index reference the reference way:
// a scan for the survivors and a fresh index holding them.
func retainRef(ref *ScanIndex, keep matrix.Top) int {
	kept := scanSelect(ref, keep)
	removed := ref.Len() - len(kept)
	*ref = ScanIndex{}
	ref.InsertBatch(kept)
	return removed
}

// retainState is one stored state the differential test filters: a
// builder (called once per filter, so every filter sees the same
// state) and an empty index of the same kind for the reference.
type retainState struct {
	name  string
	build func(t *testing.T) Index
	fresh func() Index
}

// diffTuple is the stream behind the differential states: U spread by
// the sequence number, Size 0 on every third tuple (so its accounted
// bytes come from the payload, or the floor of 1), a payload on a fifth
// and a dummy on a thirteenth.
func diffTuple(rng *rand.Rand, seq uint64, key int64) Tuple {
	tp := Tuple{Rel: matrix.SideS, Key: key, Aux: int64(seq) * 3, Size: int32(seq % 3 * 4), Seq: seq, U: hashKey(int64(seq))}
	if rng.Intn(5) == 0 {
		tp.Payload = []byte{byte(seq), byte(seq >> 8), byte(key)}
	}
	if rng.Intn(13) == 0 {
		tp.Dummy = true
	}
	return tp
}

func retainStates() []retainState {
	return []retainState{
		{
			// A hash index whose directory has just grown to 16 Ki
			// slots and whose arena holds a partially filled block
			// before an adopted partial tail, then views of shared
			// blocks. (The name predates the single growth rule.)
			name: "hash-mid-rehash",
			build: func(t *testing.T) Index {
				rng := rand.New(rand.NewSource(7))
				h := NewHashIndex()
				seq := uint64(0)
				next := func(key int64) Tuple { seq++; return diffTuple(rng, seq, key) }
				for key := int64(0); key <= 6144; key++ {
					h.Insert(next(key))
				}
				distinct := int64(h.Len())
				for i := 0; i < 20; i++ {
					h.Insert(next(rng.Int63n(distinct)))
				}
				donor := NewHashIndex()
				for i := 0; i < 30; i++ {
					donor.Insert(next(rng.Int63n(distinct)))
				}
				h.MergeFrom(donor)
				partial := len(h.arena.chunks) - 1
				shared := make([]Tuple, 60)
				for i := range shared {
					shared[i] = next(rng.Int63n(distinct))
				}
				storeShared(shared, 2, 13, h.InsertWindow)
				a := &h.arena
				if a.chunks[partial].hi == arenaChunk || a.chunks[len(a.chunks)-1].c.sharers == 0 {
					t.Fatal("state lacks the partial block before the adopted tail, or the shared views")
				}
				return h
			},
			fresh: func() Index { return NewHashIndex() },
		},
		{
			name: "scan-adopted-tail",
			build: func(t *testing.T) Index {
				rng := rand.New(rand.NewSource(8))
				s := NewScanIndex()
				seq := uint64(0)
				for i := 0; i < 700; i++ {
					seq++
					s.Insert(diffTuple(rng, seq, rng.Int63n(50)))
				}
				donor := NewScanIndex()
				for i := 0; i < 40; i++ {
					seq++
					donor.Insert(diffTuple(rng, seq, rng.Int63n(50)))
				}
				s.MergeFrom(donor)
				return s
			},
			fresh: func() Index { return NewScanIndex() },
		},
		{
			name: "ordered",
			build: func(t *testing.T) Index {
				rng := rand.New(rand.NewSource(9))
				o := NewOrderedIndex(2)
				for seq := uint64(1); seq <= 1500; seq++ {
					o.Insert(diffTuple(rng, seq, rng.Int63n(200)))
				}
				return o
			},
			fresh: func() Index { return NewOrderedIndex(2) },
		},
	}
}

// mutGenOf reads an arena-backed index's rebuild generation; ok is
// false for the ordered index, which has none.
func mutGenOf(idx Index) (gen uint64, ok bool) {
	switch v := idx.(type) {
	case *HashIndex:
		return v.arena.mutGen, true
	case *ScanIndex:
		return v.arena.mutGen, true
	}
	return 0, false
}

// TestRetainAndSelectMatchScanReference holds the two u-column paths of
// a migration — the τ selection that copies a partition's survivors
// into a BlockEncoder, and the finalize discard Retain — to the
// Scan + keep(Tuple) reference, for a hash index (a freshly grown
// directory, a merged donor's index, shared views, payload-carrying
// rows and dummies), a scan index and an ordered index. The selection
// must hand over exactly the reference survivors in Scan order, shipping
// every full batch at the limit; Retain must leave the same tuples,
// Len and Bytes as the reference, every key's probe matches of an index
// built from the survivors (in the same order but for a hash index,
// whose matches come slot index by slot index), and, when it removed
// anything, a bumped mutGen — what makes the next checkpoint of the
// index full. Each filter is then run again under a second one, nested
// in it or disjoint from it, so the checks also read views and readers
// whose filters two discards narrowed, and a hash index then merges a
// donor, whose hand-over may compact it.
func TestRetainAndSelectMatchScanReference(t *testing.T) {
	tops := []matrix.Top{
		{Shift: 63, Val: 0}, {Shift: 63, Val: 1}, {Shift: 62, Val: 2}, {Shift: 61, Val: 5},
		matrix.TopAll, matrix.TopNone,
	}
	for _, st := range retainStates() {
		for _, keep := range tops {
			t.Run(fmt.Sprintf("%s/shift=%d,val=%d", st.name, keep.Shift, keep.Val), func(t *testing.T) {
				checkRetain(t, st, st.build(t), keep)
				// Filters on filters: a nested and a disjoint second discard.
				for _, then := range []matrix.Top{{Shift: 61, Val: 2}, {Shift: 62, Val: 3}} {
					idx := st.build(t)
					checkRetain(t, st, idx, keep)
					want2 := checkRetain(t, st, idx, then)
					h, ok := idx.(*HashIndex)
					if !ok {
						continue
					}
					donor := NewHashIndex()
					rng := rand.New(rand.NewSource(int64(then.Val)))
					for seq := uint64(1 << 40); seq < 1<<40+700; seq++ {
						tp := diffTuple(rng, seq, rng.Int63n(3000))
						donor.Insert(tp)
						want2 = append(want2, tp)
					}
					h.MergeFrom(donor)
					checkContents(t, st, "merged after two discards", idx, want2)
				}
			})
		}
	}
}

// checkRetain selects keep's survivors of idx into encoder blocks, then
// applies Retain(keep) to idx, holding both to the Scan + keep
// reference, and returns the survivors.
func checkRetain(t *testing.T, st retainState, idx Index, keep matrix.Top) []Tuple {
	t.Helper()
	want := scanSelect(idx, keep)
	var wantBytes int64
	for _, tp := range want {
		wantBytes += tp.Bytes()
	}

	// Selection: a limit well below a block, so batches ship
	// mid-block and the copy resumes in the encoder's fresh blocks.
	const limit = 100
	var enc BlockEncoder
	var sets []*BlockSet
	n := enc.addSelected(idx, matrix.SideS, keep, limit, func() { sets = append(sets, enc.Seal()) })
	if enc.Len() > 0 {
		sets = append(sets, enc.Seal())
	}
	if enc.Len() != 0 {
		t.Fatal("Seal left tuples in the encoder")
	}
	var got []Tuple
	var gotBytes int64
	for i, bs := range sets {
		if i < len(sets)-1 && bs.Tuples() != limit {
			t.Fatalf("batch %d shipped %d tuples, want the limit %d", i, bs.Tuples(), limit)
		}
		if bs.Len(matrix.SideR) != 0 {
			t.Fatalf("batch %d holds %d R tuples from an S index", i, bs.Len(matrix.SideR))
		}
		got = bs.AppendSide(got, matrix.SideS)
		gotBytes += bs.Bytes()
	}
	if n != len(want) || len(got) != len(want) || gotBytes != wantBytes {
		t.Fatalf("selection copied %d (%d delivered, %d B), reference %d (%d B)", n, len(got), gotBytes, len(want), wantBytes)
	}
	for i := range got {
		if !eqTuple(got[i], want[i]) {
			t.Fatalf("selection[%d] = %+v, reference %+v", i, got[i], want[i])
		}
	}

	// Retain.
	before := idx.Len()
	gen, hasGen := mutGenOf(idx)
	if removed := idx.Retain(keep); removed != before-len(want) {
		t.Fatalf("Retain removed %d, reference %d", removed, before-len(want))
	}
	if hasGen {
		wantGen := gen
		if len(want) < before {
			wantGen++
		}
		if g, _ := mutGenOf(idx); g != wantGen {
			t.Fatalf("mutGen %d after Retain, want %d", g, wantGen)
		}
	}
	checkContents(t, st, "after Retain", idx, want)
	return want
}

// checkContents holds idx to want: Len and Bytes, Scan (in want's order
// but for a hash index) and every key's probe matches against an index
// of st's kind built from want, in the same order but for a hash index.
func checkContents(t *testing.T, st retainState, label string, idx Index, want []Tuple) {
	t.Helper()
	var wantBytes int64
	for _, tp := range want {
		wantBytes += tp.Bytes()
	}
	if idx.Len() != len(want) || idx.Bytes() != wantBytes {
		t.Fatalf("%s: Len/Bytes %d/%d, reference %d/%d", label, idx.Len(), idx.Bytes(), len(want), wantBytes)
	}
	h, isHash := idx.(*HashIndex)
	var all []Tuple
	idx.Scan(func(tp Tuple) bool { all = append(all, tp); return true })
	sameBySeq(t, label+": Scan", all, want)
	if s, ok := idx.(*ScanIndex); ok {
		checkViewCounts(t, label, &s.arena)
		for i := range all {
			if !eqTuple(all[i], want[i]) {
				t.Fatalf("%s: Scan[%d] = %+v, reference %+v (scan order moved)", label, i, all[i], want[i])
			}
		}
	}
	ref := st.fresh()
	ref.InsertBatch(want)
	keys := map[int64]bool{-1: true} // one guaranteed miss
	for _, tp := range want {
		keys[tp.Key] = true
	}
	for key := range keys {
		probe := Tuple{Rel: matrix.SideR, Key: key}
		var g, w []Tuple
		idx.Probe(probe, func(s Tuple) { g = append(g, s) })
		ref.Probe(probe, func(s Tuple) { w = append(w, s) })
		if isHash {
			sameBySeq(t, fmt.Sprintf("%s: probe(%d)", label, key), g, w)
			continue
		}
		if len(g) != len(w) {
			t.Fatalf("%s: probe(%d) matched %d, reference %d", label, key, len(g), len(w))
		}
		for i := range g {
			if !eqTuple(g[i], w[i]) {
				t.Fatalf("%s: probe(%d)[%d] = %+v, reference %+v (probe order moved)", label, key, i, g[i], w[i])
			}
		}
	}
	if isHash {
		checkViewCounts(t, label, &h.arena)
		checkStore(t, label, h)
	}
}
