package join

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

// Every pluggable local algorithm must produce exactly the reference
// join for any interleaving — the property that lets a joiner task
// adopt "any flavor of non-blocking join algorithm" (§3.2).
func TestRippleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, p := range []Predicate{
		EquiJoin("eq", nil),
		BandJoin("band", 3, nil),
		ThetaJoin("neq", func(r, s Tuple) bool { return r.Key != s.Key }),
	} {
		rj := NewRipple(p)
		emit, n := CountingEmit()
		var rs, ss []Tuple
		for i := 0; i < 400; i++ {
			r := Tuple{Rel: matrix.SideR, Key: rng.Int63n(60), Seq: uint64(2 * i)}
			s := Tuple{Rel: matrix.SideS, Key: rng.Int63n(60), Seq: uint64(2*i + 1)}
			rs = append(rs, r)
			ss = append(ss, s)
			rj.Add(r, emit)
			rj.Add(s, emit)
		}
		if want := referenceJoin(p, rs, ss); int(*n) != want {
			t.Fatalf("%v: ripple emitted %d, reference %d", p, *n, want)
		}
		if rj.Matched() != *n {
			t.Fatalf("Matched()=%d, emitted %d", rj.Matched(), *n)
		}
	}
}

// The ripple estimator must converge to the true join size as the
// sample grows, and its confidence interval must shrink.
func TestRippleEstimateConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := EquiJoin("eq", nil)
	const totalR, totalS, keys = 4000, 4000, 100

	// Materialize the full inputs and the true join size.
	rs := make([]Tuple, totalR)
	ss := make([]Tuple, totalS)
	for i := range rs {
		rs[i] = Tuple{Rel: matrix.SideR, Key: rng.Int63n(keys), Seq: uint64(2 * i)}
	}
	for i := range ss {
		ss[i] = Tuple{Rel: matrix.SideS, Key: rng.Int63n(keys), Seq: uint64(2*i + 1)}
	}
	truth := float64(referenceJoin(p, rs, ss))

	rj := NewRipple(p)
	emit, _ := CountingEmit()
	var prevHalf float64 = math.Inf(1)
	for i := 0; i < totalR; i++ {
		rj.Add(rs[i], emit)
		rj.Add(ss[i], emit)
		switch i {
		case totalR / 4, totalR / 2:
			est, half := rj.Estimate(totalR, totalS, 1.96)
			if math.Abs(est-truth)/truth > 0.25 {
				t.Fatalf("at %d tuples: estimate %.0f far from truth %.0f", 2*i, est, truth)
			}
			if half >= prevHalf {
				t.Fatalf("confidence interval did not shrink: %v -> %v", prevHalf, half)
			}
			prevHalf = half
		}
	}
	est, _ := rj.Estimate(totalR, totalS, 1.96)
	if est != truth {
		t.Fatalf("complete-input estimate %.0f != truth %.0f", est, truth)
	}
}

func TestRippleEmptyEstimate(t *testing.T) {
	rj := NewRipple(EquiJoin("eq", nil))
	est, half := rj.Estimate(100, 100, 1.96)
	if est != 0 || !math.IsInf(half, 1) {
		t.Fatalf("empty estimate %v ± %v", est, half)
	}
}

func TestPMJMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, p := range []Predicate{
		EquiJoin("eq", nil),
		BandJoin("band", 2, func(r, s Tuple) bool { return r.Aux <= s.Aux+50 }),
		ThetaJoin("lt", func(r, s Tuple) bool { return r.Key < s.Key }),
	} {
		for _, budget := range []int{1, 7, 64, 10000} {
			pm := NewPMJ(p, budget)
			emit, n := CountingEmit()
			var rs, ss []Tuple
			for i := 0; i < 300; i++ {
				r := Tuple{Rel: matrix.SideR, Key: rng.Int63n(80), Aux: rng.Int63n(100)}
				s := Tuple{Rel: matrix.SideS, Key: rng.Int63n(80), Aux: rng.Int63n(100)}
				rs = append(rs, r)
				ss = append(ss, s)
				pm.Add(r, emit)
				pm.Add(s, emit)
			}
			if want := referenceJoin(p, rs, ss); int(*n) != want {
				t.Fatalf("%v budget=%d: PMJ emitted %d, reference %d", p, budget, *n, want)
			}
		}
	}
}

func TestPMJSealsRuns(t *testing.T) {
	pm := NewPMJ(BandJoin("b", 1, nil), 10)
	emit, _ := CountingEmit()
	for i := 0; i < 35; i++ {
		pm.Add(Tuple{Rel: matrix.SideR, Key: int64(35 - i)}, emit)
	}
	r, s := pm.Runs()
	if r != 3 || s != 0 {
		t.Fatalf("runs %d,%d; want 3,0", r, s)
	}
	if pm.Len(matrix.SideR) != 35 {
		t.Fatalf("Len=%d", pm.Len(matrix.SideR))
	}
}

func TestPMJBudgetFloor(t *testing.T) {
	pm := NewPMJ(EquiJoin("eq", nil), 0)
	emit, n := CountingEmit()
	pm.Add(Tuple{Rel: matrix.SideR, Key: 1}, emit)
	pm.Add(Tuple{Rel: matrix.SideS, Key: 1}, emit)
	if *n != 1 {
		t.Fatalf("emitted %d", *n)
	}
}

// Property: PMJ and Local agree on output size for any input.
func TestQuickPMJAgreesWithLocal(t *testing.T) {
	f := func(keys []uint8, budget uint8) bool {
		p := BandJoin("b", 2, nil)
		pm := NewPMJ(p, int(budget%32)+1)
		l := NewLocal(p)
		pe, pn := CountingEmit()
		ln := 0
		for i, k := range keys {
			rel := matrix.SideR
			if i%2 == 1 {
				rel = matrix.SideS
			}
			t := Tuple{Rel: rel, Key: int64(k % 40)}
			pm.Add(t, pe)
			ln += add(l, t)
		}
		return *pn == int64(ln)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRippleDummySkipped(t *testing.T) {
	rj := NewRipple(EquiJoin("eq", nil))
	emit, n := CountingEmit()
	rj.Add(Tuple{Rel: matrix.SideR, Key: 1, Dummy: true}, emit)
	rj.Add(Tuple{Rel: matrix.SideS, Key: 1}, emit)
	if *n != 0 {
		t.Fatalf("dummy matched: %d", *n)
	}
	r, s := rj.Seen()
	if r != 0 || s != 1 {
		t.Fatalf("seen %d,%d", r, s)
	}
}
