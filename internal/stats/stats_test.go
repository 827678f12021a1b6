package stats

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestEstimatorScaling(t *testing.T) {
	e := NewEstimator(16)
	for i := 0; i < 10; i++ {
		e.ObserveR()
	}
	for i := 0; i < 3; i++ {
		e.ObserveS()
	}
	if e.R() != 160 || e.S() != 48 {
		t.Fatalf("R=%d S=%d", e.R(), e.S())
	}
	if e.Total() != 208 {
		t.Fatalf("Total=%d", e.Total())
	}
	lr, ls := e.Local()
	if lr != 10 || ls != 3 {
		t.Fatalf("Local=%d,%d", lr, ls)
	}
}

func TestEstimatorPanicsOnBadJ(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewEstimator(0)
}

// The scaled estimate from a random 1/J thinning must converge to the
// true cardinality.
func TestEstimatorConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const j = 16
	const trueR = 200000
	e := NewEstimator(j)
	for i := 0; i < trueR; i++ {
		if rng.Intn(j) == 0 { // tuple routed to this reshuffler
			e.ObserveR()
		}
	}
	got := float64(e.R())
	if math.Abs(got-trueR)/trueR > 0.05 {
		t.Fatalf("estimate %v too far from %v", got, trueR)
	}
}

func TestSnapshotRatio(t *testing.T) {
	s := Snapshot{R: 100, S: 50}
	if s.Ratio() != 2 {
		t.Fatalf("ratio %v", s.Ratio())
	}
	if (Snapshot{R: 7, S: 0}).Ratio() != 7 {
		t.Fatal("zero-S ratio should floor denominator at 1")
	}
}

// Sharded counters are exact: concurrent writers on distinct cells must
// merge to precisely the sum of their observations, not an estimate.
func TestShardedExactUnderConcurrency(t *testing.T) {
	const cells = 8
	const perCell = 5000
	sh := NewSharded(cells)
	var wg sync.WaitGroup
	for c := 0; c < cells; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCell; i++ {
				sh.ObserveN(c, 2, 1)
			}
		}(c)
	}
	wg.Wait()
	snap := sh.Snapshot()
	if snap.R != 2*cells*perCell || snap.S != cells*perCell {
		t.Fatalf("snapshot R=%d S=%d, want %d and %d", snap.R, snap.S, 2*cells*perCell, cells*perCell)
	}
	if sh.Cells() != cells {
		t.Fatalf("Cells=%d", sh.Cells())
	}
}

func TestShardedZeroSidedObserve(t *testing.T) {
	sh := NewSharded(2)
	sh.ObserveN(0, 3, 0)
	sh.ObserveN(1, 0, 4)
	if snap := sh.Snapshot(); snap.R != 3 || snap.S != 4 {
		t.Fatalf("snapshot %+v", snap)
	}
}

func TestShardedPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewSharded(0)
}
