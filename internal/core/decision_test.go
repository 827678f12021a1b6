package core

import (
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

func TestDeciderDefaults(t *testing.T) {
	d := NewDecider(DeciderConfig{J: 16, Initial: matrix.Square(16)})
	if d.epsilon != 1 || d.minDelta != 16 {
		t.Fatalf("defaults epsilon=%v minDelta=%d", d.epsilon, d.minDelta)
	}
	if d.CompetitiveBound() != 1.25 {
		t.Fatalf("bound %v", d.CompetitiveBound())
	}
}

func TestDeciderEpsilonBound(t *testing.T) {
	d := NewDecider(DeciderConfig{J: 4, Initial: matrix.Square(4), Epsilon: 0.5})
	// (3+2e)/(3+e) at e=0.5 -> 4/3.5
	if got := d.CompetitiveBound(); got < 1.142 || got > 1.143 {
		t.Fatalf("bound %v", got)
	}
}

func TestDeciderPanics(t *testing.T) {
	for _, cfg := range []DeciderConfig{
		{J: 16, Initial: matrix.Mapping{N: 3, M: 4}},
		{J: 16, Initial: matrix.Square(8)},
		{J: 16, Initial: matrix.Square(16), Epsilon: 2},
		{J: 16, Initial: matrix.Square(16), Epsilon: -0.5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %+v", cfg)
				}
			}()
			NewDecider(cfg)
		}()
	}
}

func TestDeciderTriggersOnThreshold(t *testing.T) {
	d := NewDecider(DeciderConfig{J: 64, Initial: matrix.Square(64), MinDelta: 1})
	// Feed only S tuples: first checkpoint after 1 tuple (minDelta),
	// mapping should head toward (1,64).
	d.Observe(0, 1)
	out := d.Evaluate()
	if !out.Checked || !out.Migrate || out.Target != (matrix.Mapping{N: 1, M: 64}) {
		t.Fatalf("outcome %+v", out)
	}
	// Grow the base well past the threshold region, then verify that
	// arrivals below ε·|S| do not trigger a checkpoint.
	d.Observe(0, 999)
	d.Evaluate()
	base := d.baseS
	d.Observe(0, base/2)
	if out := d.Evaluate(); out.Checked {
		t.Fatalf("premature checkpoint at ∆S=%d < |S|=%d: %+v", base/2, base, out)
	}
	d.Observe(0, base/2+1)
	if out := d.Evaluate(); !out.Checked {
		t.Fatal("checkpoint missed at ∆S ≥ |S|")
	}
}

func TestDeciderWarmup(t *testing.T) {
	d := NewDecider(DeciderConfig{J: 16, Initial: matrix.Square(16), Warmup: 1000, MinDelta: 1})
	d.Observe(0, 999)
	if out := d.Evaluate(); out.Checked {
		t.Fatal("checked during warmup")
	}
	d.Observe(0, 1)
	if out := d.Evaluate(); !out.Checked || out.Target != (matrix.Mapping{N: 1, M: 16}) {
		t.Fatalf("post-warmup outcome %+v", out)
	}
}

// The decider's 1.25-competitiveness (Lemma 4.3 / Thm 4.6): replay a
// random stream and verify the ILF of the deployed mapping never
// exceeds 1.25x the omniscient optimum at any point.
func TestDeciderCompetitiveRatio(t *testing.T) {
	for _, epsilon := range []float64{1.0, 0.5, 0.25} {
		const j = 64
		d := NewDecider(DeciderConfig{J: j, Initial: matrix.Square(j), Epsilon: epsilon, MinDelta: 1})
		bound := d.CompetitiveBound()
		var r, s int64
		worst := 1.0
		for i := 0; i < 200000; i++ {
			// Alternating bursts create fluctuation pressure.
			if (i/5000)%2 == 0 {
				r++
				d.Observe(1, 0)
			} else {
				s++
				d.Observe(0, 1)
			}
			if out := d.Evaluate(); out.Migrate {
				d.SetMapping(out.Target) // blocking semantics: deploy instantly
			}
			if r == 0 || s == 0 {
				continue
			}
			// Precondition of the theorem: ratio within J.
			if r > int64(j)*s || s > int64(j)*r {
				continue
			}
			ilf := d.Mapping().ILF(float64(r), float64(s))
			opt := matrix.Optimal(j, float64(r), float64(s)).ILF(float64(r), float64(s))
			ratio := ilf / opt
			if ratio > worst {
				worst = ratio
			}
			if ratio > bound+1e-9 {
				t.Fatalf("eps=%v at tuple %d: ratio %.4f exceeds bound %.4f (mapping %v, r=%d s=%d)",
					epsilon, i, ratio, bound, d.Mapping(), r, s)
			}
		}
		if worst < 1.01 {
			t.Fatalf("eps=%v: worst ratio %.4f suspiciously low; test may be vacuous", epsilon, worst)
		}
	}
}

// Amortized migration cost (Lemma 4.5): total migration volume over a
// long stream is linear in the number of tuples.
func TestDeciderAmortizedMigrationCost(t *testing.T) {
	const j = 64
	d := NewDecider(DeciderConfig{J: j, Initial: matrix.Square(j), MinDelta: 1})
	var r, s int64
	var migCost float64
	const total = 500000
	for i := 0; i < total; i++ {
		if (i/20000)%2 == 0 {
			r++
			d.Observe(1, 0)
		} else {
			s++
			d.Observe(0, 1)
		}
		before := d.Mapping()
		out := d.Evaluate()
		if out.Migrate {
			d.SetMapping(out.Target)
			for _, step := range before.StepsTo(out.Target) {
				tr := matrix.NewTransition(before, step)
				// Global migration volume: every machine sends its
				// exchange-side partition; J machines in parallel.
				migCost += float64(tr.From.J()) * tr.MigrationVolume(float64(r), float64(s))
				before = step
			}
		}
	}
	perTuple := migCost / total
	// Lemma 4.5 charges a constant per tuple; J=64 machines replicate
	// each migrated partition, so the global constant is O(J).
	if perTuple > 8*j {
		t.Fatalf("amortized migration cost %.2f tuples/tuple is not constant-bounded", perTuple)
	}
}

func TestDeciderExpansionTrigger(t *testing.T) {
	d := NewDecider(DeciderConfig{J: 4, Initial: matrix.Square(4), MinDelta: 1, MaxPerJoiner: 100})
	// Push per-joiner ILF beyond M/2 = 50: with (2,2), ILF = r/2+s/2.
	d.Observe(80, 80)
	out := d.Evaluate()
	if !out.Expand {
		t.Fatalf("no expansion: %+v (ILF %v)", out, d.Mapping().ILF(80, 80))
	}
	d.NoteExpanded()
	if d.Mapping() != (matrix.Mapping{N: 4, M: 4}) || d.j != 16 {
		t.Fatalf("post-expansion state %v j=%d", d.Mapping(), d.j)
	}
}

func TestDeciderPadding(t *testing.T) {
	d := NewDecider(DeciderConfig{J: 4, Initial: matrix.Square(4), MinDelta: 1})
	// r vastly larger than s: padding keeps the ratio at J so the
	// optimal search stays within Lemma 4.1's precondition.
	pr, ps := d.padded(4000, 1)
	if pr != 4000 || ps != 1000 {
		t.Fatalf("padded = %v,%v", pr, ps)
	}
	pr, ps = d.padded(1, 4000)
	if pr != 1000 || ps != 4000 {
		t.Fatalf("padded = %v,%v", pr, ps)
	}
	pr, ps = d.padded(10, 20)
	if pr != 10 || ps != 20 {
		t.Fatalf("padding applied needlessly: %v,%v", pr, ps)
	}
}

func TestDeciderCountsAndStats(t *testing.T) {
	d := NewDecider(DeciderConfig{J: 16, Initial: matrix.Square(16), MinDelta: 4})
	d.Observe(10, 5)
	r, s := d.Counts()
	if r != 10 || s != 5 {
		t.Fatalf("counts %d,%d", r, s)
	}
	d.Evaluate()
	if d.Checks() != 1 {
		t.Fatalf("checks %d", d.Checks())
	}
}

// TestDeciderUntilPredictsFiring holds Until to what the decision gate
// reads it as: Evaluate fires after Observe(dR, dS) exactly when dR or
// dS reaches its relation's Until count and dR+dS reaches the total.
// A gate that waited too long would delay decisions; one that opened
// too early would cost a hand-off per run.
func TestDeciderUntilPredictsFiring(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, cfg := range []DeciderConfig{
		{J: 16, Initial: matrix.Square(16)},
		{J: 16, Initial: matrix.Square(16), Warmup: 5000, Epsilon: 0.5},
		{J: 64, Initial: matrix.Square(64), MinDelta: 1, Epsilon: 0.25},
	} {
		d := NewDecider(cfg)
		fired := 0
		for step := 0; step < 2000; step++ {
			needR, needS, needTotal := d.Until()
			dR, dS := rng.Int63n(300), rng.Int63n(300)
			if rng.Intn(3) == 0 {
				dR = 0 // one-sided runs, as a fluctuating stream deals them
			}
			want := (dR >= needR || dS >= needS) && dR+dS >= needTotal
			d.Observe(dR, dS)
			if got := d.Evaluate().Checked; got != want {
				t.Fatalf("%+v step %d: Until (%d, %d, %d), Observe(%d, %d): fired %v, want %v",
					cfg, step, needR, needS, needTotal, dR, dS, got, want)
			}
			if want {
				fired++
			}
		}
		if fired == 0 {
			t.Fatalf("%+v: no evaluation fired", cfg)
		}
	}
}
