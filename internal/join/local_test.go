package join

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

// referenceJoin computes R ⋈ S by nested loops over the full inputs.
func referenceJoin(p Predicate, rs, ss []Tuple) int {
	n := 0
	for _, r := range rs {
		for _, s := range ss {
			if p.Matches(r, s) {
				n++
			}
		}
	}
	return n
}

func randTuples(rng *rand.Rand, rel matrix.Side, n int, keyRange int64) []Tuple {
	ts := make([]Tuple, n)
	for i := range ts {
		ts[i] = Tuple{Rel: rel, Key: rng.Int63n(keyRange), Aux: rng.Int63n(100), Size: 8, U: rng.Uint64()}
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
	rs := randTuples(rng, matrix.SideR, 300, 50)
	ss := randTuples(rng, matrix.SideS, 400, 50)
	want := referenceJoin(p, rs, ss)

	l := NewLocal(p)
	n := 0
	// Random interleave.
	ri, si := 0, 0
	for ri < len(rs) || si < len(ss) {
		if si >= len(ss) || (ri < len(rs) && rng.Intn(2) == 0) {
			n += add(l, rs[ri])
			ri++
		} else {
			n += add(l, ss[si])
			si++
		}
	}
	if n != want {
		t.Fatalf("symmetric join output %d, reference %d", n, want)
	}
}

func TestLocalBandMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := BandJoin("band", 2, func(r, s Tuple) bool { return r.Aux > 10 })
	rs := randTuples(rng, matrix.SideR, 250, 200)
	ss := randTuples(rng, matrix.SideS, 250, 200)
	want := referenceJoin(p, rs, ss)

	l := NewLocal(p)
	n := 0
	for i := 0; i < len(rs); i++ {
		n += add(l, rs[i])
		n += add(l, ss[i])
	}
	if n != want {
		t.Fatalf("band join output %d, reference %d", n, want)
	}
}

func TestLocalThetaMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// The paper's Fig. 1a predicate: r != s.
	p := ThetaJoin("neq", func(r, s Tuple) bool { return r.Key != s.Key })
	rs := randTuples(rng, matrix.SideR, 100, 20)
	ss := randTuples(rng, matrix.SideS, 100, 20)
	want := referenceJoin(p, rs, ss)

	l := NewLocal(p)
	n := 0
	for i := range rs {
		n += add(l, ss[i])
		n += add(l, rs[i])
	}
	if n != want {
		t.Fatalf("theta join output %d, reference %d", n, want)
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
			rs = append(rs, Tuple{Rel: matrix.SideR, Key: int64(k % 32)})
		}
		for _, k := range sKeys {
			ss = append(ss, Tuple{Rel: matrix.SideS, Key: int64(k % 32)})
		}
		l := NewLocal(p)
		var out []Pair
		l.AddBatchCollect(rs, &out)
		l.AddBatchCollect(ss, &out)
		return len(out) == referenceJoin(p, rs, ss)
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
