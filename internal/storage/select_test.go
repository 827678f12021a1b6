package storage

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/join"
	"repro/internal/matrix"
)

// TestStoreRetainAndSelectMatchScanReference is the spill-tier half of
// the join package's u-column differential test: a budgeted store
// whose S side overflows into its disk segment must select (τ) and
// retain (the finalize discard) exactly the tuples a Scan + keep(Tuple)
// pass picks across both tiers, keep Len and Bytes, and answer probes
// only from the survivors. A removal in the memory tier must bump the
// index's rebuild generation, so the next checkpoint of it is full.
func TestStoreRetainAndSelectMatchScanReference(t *testing.T) {
	tops := []matrix.Top{{Shift: 63, Val: 0}, {Shift: 62, Val: 3}, matrix.TopAll, matrix.TopNone}
	for _, keep := range tops {
		rng := rand.New(rand.NewSource(int64(keep.Shift)*8 + int64(keep.Val)))
		s := NewStore(join.EquiJoin("eq", nil), Config{CapBytes: 16 * 600, Dir: t.TempDir()})
		for seq := uint64(1); seq <= 1000; seq++ {
			tp := tup(matrix.SideS, rng.Int63n(40), seq)
			tp.U = rng.Uint64()
			if seq%5 == 0 {
				tp.Payload = []byte{byte(seq), byte(seq >> 8)}
			}
			s.Insert(tp)
		}
		if !s.Spilled() {
			t.Fatal("the store never spilled; the segment path is not covered")
		}
		var want []join.Tuple
		var wantBytes int64
		s.Scan(matrix.SideS, func(tp join.Tuple) bool {
			if keep.Has(tp.U) {
				want = append(want, tp)
				wantBytes += tp.Bytes()
			}
			return true
		})
		bySeq := func(ts []join.Tuple) {
			sort.Slice(ts, func(i, j int) bool { return ts[i].Seq < ts[j].Seq })
		}
		bySeq(want)
		same := func(label string, got []join.Tuple) {
			t.Helper()
			bySeq(got)
			if len(got) != len(want) {
				t.Fatalf("keep %+v: %s holds %d tuples, reference %d", keep, label, len(got), len(want))
			}
			for i := range got {
				g, w := got[i], want[i]
				if g.Seq != w.Seq || g.Key != w.Key || g.U != w.U || string(g.Payload) != string(w.Payload) || g.Bytes() != w.Bytes() {
					t.Fatalf("keep %+v: %s tuple %d = %+v, reference %+v", keep, label, i, g, w)
				}
			}
		}

		var enc join.BlockEncoder
		var got []join.Tuple
		var gotBytes int64
		ship := func() {
			bs := enc.Seal()
			got = bs.AppendSide(got, matrix.SideS)
			gotBytes += bs.Bytes()
		}
		n := s.SelectInto(matrix.SideS, keep, &enc, 128, ship)
		if enc.Len() > 0 {
			ship()
		}
		if n != len(want) || gotBytes != wantBytes {
			t.Fatalf("keep %+v: selection copied %d tuples (%d B), reference %d (%d B)", keep, n, gotBytes, len(want), wantBytes)
		}
		same("selection", got)

		_, wm, _ := s.AppendSnapshotSince(nil, nil)
		memBefore := s.mem.Len(matrix.SideS)
		before := s.Len(matrix.SideS)
		if removed := s.Retain(matrix.SideS, keep); removed != before-len(want) {
			t.Fatalf("keep %+v: Retain removed %d, reference %d", keep, removed, before-len(want))
		}
		if s.Len(matrix.SideS) != len(want) || s.Bytes() != wantBytes {
			t.Fatalf("keep %+v: Len/Bytes %d/%d after Retain, reference %d/%d", keep, s.Len(matrix.SideS), s.Bytes(), len(want), wantBytes)
		}
		var all []join.Tuple
		s.Scan(matrix.SideS, func(tp join.Tuple) bool { all = append(all, tp); return true })
		same("store after Retain", all)
		_, next, _ := s.AppendSnapshotSince(nil, &wm)
		wantGen := wm.Mem.S.MutGen
		if s.mem.Len(matrix.SideS) < memBefore {
			wantGen++
		}
		if next.Mem.S.MutGen != wantGen {
			t.Fatalf("keep %+v: memory-tier rebuild generation %d after Retain, want %d", keep, next.Mem.S.MutGen, wantGen)
		}
		for key := int64(0); key < 40; key++ {
			wantHits := int64(0)
			for _, tp := range want {
				if tp.Key == key {
					wantHits++
				}
			}
			if n := probeCount(s, tup(matrix.SideR, key, 5000)); n != wantHits {
				t.Fatalf("keep %+v: probe(%d) hit %d, reference %d", keep, key, n, wantHits)
			}
		}
		_ = s.Close()
	}
}
