package join

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/exact"
	"repro/internal/matrix"
)

// oracle is exact's multiset of p over rs × ss, each pair keyed by its
// members' seqs: a sort-merge for a residual-free equi or band
// predicate, a nested loop over Matches otherwise.
func oracle(p Predicate, rs, ss []Tuple) [][2]uint64 {
	if p.Residual != nil || p.Kind == Theta {
		return exact.Theta(rs, ss, func(r, s *Tuple) bool { return p.Matches(*r, *s) }, seqPair)
	}
	w := p.Width
	if p.Kind == Equi {
		w = 0
	}
	return exact.Band(rs, ss, w, func(t *Tuple) (int64, bool) { return t.Key, !t.Dummy }, seqPair)
}

func seqPair(r, s *Tuple) [2]uint64 { return [2]uint64{r.Seq, s.Seq} }

// seqKeys keys emitted pairs as oracle does.
func seqKeys(ps []Pair) [][2]uint64 {
	out := make([][2]uint64, len(ps))
	for i := range ps {
		out[i] = seqPair(&ps[i].R, &ps[i].S)
	}
	return out
}

// randTuples draws n tuples of rel over keyRange, with seqs from seq0+1
// on.
func randTuples(rng *rand.Rand, rel matrix.Side, n int, keyRange int64, seq0 uint64) []Tuple {
	ts := make([]Tuple, n)
	for i := range ts {
		ts[i] = Tuple{Rel: rel, Key: rng.Int63n(keyRange), Aux: rng.Int63n(100), Size: 8, U: rng.Uint64(), Seq: seq0 + uint64(i) + 1}
	}
	return ts
}

// add is the symmetric join's per-tuple step, probe then store: t as a
// one-tuple run. It returns how many pairs the step emitted.
func add(l *Local, t Tuple) int {
	var out []Pair
	l.AddBatchCollect([]Tuple{t}, &out)
	return len(out)
}

// probe joins t against l without storing it and returns the match
// count.
func probe(l *Local, t Tuple) int {
	var out []Pair
	l.ProbeBatchCollect([]Tuple{t}, &out)
	return len(out)
}

// The symmetric join must produce exactly the reference join output for
// any interleaving of the two inputs.
func TestLocalEquiMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := EquiJoin("eq", nil)
	rs := randTuples(rng, matrix.SideR, 300, 50, 0)
	ss := randTuples(rng, matrix.SideS, 400, 50, 300)

	l := NewLocal(p)
	var out []Pair
	// Random interleave.
	ri, si := 0, 0
	for ri < len(rs) || si < len(ss) {
		if si >= len(ss) || (ri < len(rs) && rng.Intn(2) == 0) {
			l.AddBatchCollect(rs[ri:ri+1], &out)
			ri++
		} else {
			l.AddBatchCollect(ss[si:si+1], &out)
			si++
		}
	}
	exact.Equal(t, seqKeys(out), oracle(p, rs, ss))
}

func TestLocalBandMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := BandJoin("band", 2, func(r, s Tuple) bool { return r.Aux > 10 })
	rs := randTuples(rng, matrix.SideR, 250, 200, 0)
	ss := randTuples(rng, matrix.SideS, 250, 200, 250)

	l := NewLocal(p)
	var out []Pair
	for i := 0; i < len(rs); i++ {
		l.AddBatchCollect(rs[i:i+1], &out)
		l.AddBatchCollect(ss[i:i+1], &out)
	}
	exact.Equal(t, seqKeys(out), oracle(p, rs, ss))
}

func TestLocalThetaMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// The paper's Fig. 1a predicate: r != s.
	p := ThetaJoin("neq", func(r, s Tuple) bool { return r.Key != s.Key })
	rs := randTuples(rng, matrix.SideR, 100, 20, 0)
	ss := randTuples(rng, matrix.SideS, 100, 20, 100)

	l := NewLocal(p)
	var out []Pair
	for i := range rs {
		l.AddBatchCollect(ss[i:i+1], &out)
		l.AddBatchCollect(rs[i:i+1], &out)
	}
	exact.Equal(t, seqKeys(out), oracle(p, rs, ss))
}

// Band keys at the int64 extremes join by their true distance: a probe
// window that would pass either bound saturates instead of wrapping,
// and Matches never takes an overflowed difference. Both hold through
// a store's own tree and through a line's shared tree, for batch and
// callback probes, and for the residual path that calls Matches.
func TestBandAtInt64Extremes(t *testing.T) {
	for _, w := range []int64{0, 1, 3} {
		var rs, ss []Tuple
		for _, k := range []int64{math.MinInt64, math.MinInt64 + w, math.MaxInt64 - w, math.MaxInt64, 0} {
			for dup := 0; dup < 2; dup++ {
				rs = append(rs, Tuple{Rel: matrix.SideR, Key: k, Size: 8, Seq: uint64(len(rs) + 1)})
				ss = append(ss, Tuple{Rel: matrix.SideS, Key: k, Size: 8, Seq: uint64(len(ss) + 101)})
			}
		}
		plain := BandJoin("band", w, nil)
		want := oracle(plain, rs, ss)
		for _, p := range []Predicate{plain, BandJoin("band-residual", w, func(r, s Tuple) bool { return true })} {
			l := NewLocal(p)
			var own []Pair
			l.AddBatchCollect(rs, &own)
			l.AddBatchCollect(ss, &own)
			exact.Equal(t, seqKeys(own), want)

			lt, o := NewLineTree(1), NewOrderedIndex(w)
			o.InsertWindow(ss, lt.Append(ss))
			var line []Pair
			o.ProbeBatchCollect(rs, matrix.SideR, p, &line)
			exact.Equal(t, seqKeys(line), want)

			var each []Pair
			for _, r := range rs {
				o.Probe(r, func(s Tuple) { each = append(each, Pair{R: r, S: s}) })
			}
			exact.Equal(t, seqKeys(each), want)
		}
	}
	if BandJoin("band", 1, nil).Matches(Tuple{Key: math.MinInt64}, Tuple{Key: math.MaxInt64}) {
		t.Fatal("MinInt64 and MaxInt64 matched at width 1")
	}
}

func TestLocalProbeDoesNotStore(t *testing.T) {
	l := NewLocal(EquiJoin("eq", nil))
	n := probe(l, mkTuple(matrix.SideR, 1))
	if l.TotalLen() != 0 {
		t.Fatal("probe stored a tuple")
	}
	l.Insert(mkTuple(matrix.SideS, 1))
	n += probe(l, mkTuple(matrix.SideR, 1))
	n += probe(l, mkTuple(matrix.SideR, 1))
	if n != 2 {
		t.Fatalf("emitted %d, want 2", n)
	}
	if l.Len(matrix.SideR) != 0 || l.Len(matrix.SideS) != 1 {
		t.Fatalf("lens R=%d S=%d", l.Len(matrix.SideR), l.Len(matrix.SideS))
	}
}

func TestLocalDummyTuplesNeverMatch(t *testing.T) {
	l := NewLocal(EquiJoin("eq", nil))
	n := add(l, Tuple{Rel: matrix.SideR, Key: 7, Dummy: true})
	n += add(l, Tuple{Rel: matrix.SideS, Key: 7})
	n += add(l, Tuple{Rel: matrix.SideR, Key: 7})
	// Only the real R should join the real S.
	if n != 1 {
		t.Fatalf("emitted %d, want 1", n)
	}
}

func TestLocalRetainAndBytes(t *testing.T) {
	l := NewLocal(EquiJoin("eq", nil))
	for i := int64(0); i < 10; i++ {
		// Keys 5-9 route to the upper half of the u space.
		l.Insert(Tuple{Rel: matrix.SideR, Key: i, Size: 8, U: uint64(i/5) << 63})
		l.Insert(Tuple{Rel: matrix.SideS, Key: i, Size: 4, U: uint64(i/5) << 63})
	}
	if l.Bytes() != 10*8+10*4 {
		t.Fatalf("Bytes=%d", l.Bytes())
	}
	removed := l.Retain(matrix.SideS, matrix.Top{Shift: 63, Val: 0})
	if removed != 5 || l.Len(matrix.SideS) != 5 || l.Len(matrix.SideR) != 10 {
		t.Fatalf("removed=%d lens R=%d S=%d", removed, l.Len(matrix.SideR), l.Len(matrix.SideS))
	}
	// The retain debits only the S side's volume.
	if l.Bytes() != 10*8+5*4 {
		t.Fatalf("Bytes after retain=%d", l.Bytes())
	}
}

// Property: for random small inputs and any of the three predicate
// kinds, the symmetric join equals the reference join.
func TestQuickLocalEqualsReference(t *testing.T) {
	f := func(rKeys, sKeys []uint8, kind uint8) bool {
		var p Predicate
		switch kind % 3 {
		case 0:
			p = EquiJoin("eq", nil)
		case 1:
			p = BandJoin("band", 3, nil)
		default:
			p = ThetaJoin("gt", func(r, s Tuple) bool { return r.Key > s.Key })
		}
		var rs, ss []Tuple
		for _, k := range rKeys {
			rs = append(rs, Tuple{Rel: matrix.SideR, Key: int64(k % 32), Seq: uint64(len(rs) + 1)})
		}
		for _, k := range sKeys {
			ss = append(ss, Tuple{Rel: matrix.SideS, Key: int64(k % 32), Seq: uint64(len(rKeys) + len(ss) + 1)})
		}
		l := NewLocal(p)
		var out []Pair
		l.AddBatchCollect(rs, &out)
		l.AddBatchCollect(ss, &out)
		return exact.Diff(seqKeys(out), oracle(p, rs, ss)) == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPredicateString(t *testing.T) {
	if EquiJoin("", nil).String() != "equi" {
		t.Error("unnamed equi")
	}
	if BandJoin("my-band", 1, nil).String() != "my-band" {
		t.Error("named predicate")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind string")
	}
}
