package core

import (
	"fmt"

	"repro/internal/matrix"
)

// Decider implements the migration-decision algorithm (Alg. 2) with
// the ε-parameterized optimality/communication tradeoff of Theorem 4.2
// and the elasticity trigger of §4.2.2. It is driven by the controller
// with the (scaled) global cardinality estimates of Alg. 1.
//
// State: |R| and |S| are the cardinalities at the last checkpoint;
// |∆R| and |∆S| count arrivals since. When |∆R| ≥ ε|R| or |∆S| ≥ ε|S|,
// the decider re-optimizes the mapping. With ε = 1 the resulting ILF is
// 1.25-competitive and migration cost is amortized O(1) per tuple
// (Thm 4.1); general ε gives ratio (3+2ε)/(3+ε) and amortized O(1/ε).
type Decider struct {
	j       int
	epsilon float64
	// minDelta suppresses checkpoint storms while cardinalities are
	// tiny (ε·|R| rounds to zero early on).
	minDelta int64
	// warmup is the minimum total input before the first adaptation,
	// the paper's "begin adapting after at least 500K tuples" (§5.4).
	warmup int64
	// maxPerJoiner is the elasticity threshold M in tuples; at a
	// checkpoint where per-joiner storage exceeds M/2, the decider
	// requests an expansion. 0 disables elasticity.
	maxPerJoiner int64

	mapping  matrix.Mapping
	baseR    int64 // |R| at last checkpoint
	baseS    int64
	deltaR   int64 // |∆R| since last checkpoint
	deltaS   int64
	checks   int64 // checkpoints taken
	migrates int64 // checkpoints that changed the mapping
}

// DeciderConfig configures a Decider.
type DeciderConfig struct {
	J            int            // number of joiners (power of two)
	Initial      matrix.Mapping // starting mapping
	Epsilon      float64        // ε ∈ (0,1]; 0 means 1
	MinDelta     int64          // floor on ∆ thresholds; 0 means J
	Warmup       int64          // min total tuples before first adaptation
	MaxPerJoiner int64          // elasticity threshold M; 0 disables
}

// NewDecider returns a decider in the initial mapping.
func NewDecider(cfg DeciderConfig) *Decider {
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 1
	}
	if !(cfg.Epsilon > 0 && cfg.Epsilon <= 1) {
		panic(fmt.Sprintf("core: epsilon %v outside (0,1]", cfg.Epsilon))
	}
	if cfg.MinDelta == 0 {
		cfg.MinDelta = int64(cfg.J)
	}
	if !cfg.Initial.Valid() || cfg.Initial.J() != cfg.J {
		panic(fmt.Sprintf("core: initial mapping %v invalid for J=%d", cfg.Initial, cfg.J))
	}
	return &Decider{
		j: cfg.J, epsilon: cfg.Epsilon, minDelta: cfg.MinDelta,
		warmup: cfg.Warmup, maxPerJoiner: cfg.MaxPerJoiner,
		mapping: cfg.Initial,
	}
}

// Mapping returns the mapping the decider believes is deployed.
func (d *Decider) Mapping() matrix.Mapping { return d.mapping }

// SetMapping records that a migration completed and the given mapping
// is now deployed. The controller calls it after every elementary
// step; blocking-semantics users (tests, the simulator) call it
// immediately after Evaluate.
func (d *Decider) SetMapping(m matrix.Mapping) {
	if !m.Valid() || m.J() != d.j {
		panic(fmt.Sprintf("core: SetMapping(%v) invalid for J=%d", m, d.j))
	}
	d.mapping = m
}

// Counts returns the decider's view of cardinalities: base plus delta.
func (d *Decider) Counts() (r, s int64) { return d.baseR + d.deltaR, d.baseS + d.deltaS }

// Checks returns the number of checkpoints taken.
func (d *Decider) Checks() int64 { return d.checks }

// Migrations returns the number of mapping changes decided.
func (d *Decider) Migrations() int64 { return d.migrates }

// Observe accumulates newly arrived (estimated) tuples into ∆R/∆S.
// The controller calls it with scaled increments (Alg. 1).
func (d *Decider) Observe(dR, dS int64) {
	d.deltaR += dR
	d.deltaS += dS
}

// Outcome is the result of a checkpoint evaluation.
type Outcome struct {
	// Checked reports whether the ∆ thresholds fired.
	Checked bool
	// Target is the mapping to migrate to; equal to the current
	// mapping when no migration is needed.
	Target matrix.Mapping
	// Migrate reports Target != current mapping.
	Migrate bool
	// Expand requests an elastic 1-to-4 split after reaching Target.
	Expand bool
}

// Evaluate runs Alg. 2's condition and, if it fires, chooses the
// ILF-minimizing mapping for the current cardinalities and advances the
// checkpoint (lines 3-6). The caller is responsible for actually
// performing the migration (possibly as a chain of elementary steps).
func (d *Decider) Evaluate() Outcome {
	r, s := d.Counts()
	if needR, needS, needTotal := d.Until(); needTotal > 0 || needR > 0 && needS > 0 {
		return Outcome{Target: d.mapping}
	}
	d.checks++
	// Checkpoint: fold deltas into the base (Alg. 2 lines 5-6).
	d.baseR, d.baseS = r, s
	d.deltaR, d.deltaS = 0, 0

	pr, ps := d.padded(r, s)
	target := matrix.Optimal(d.j, pr, ps)
	out := Outcome{Checked: true, Target: target, Migrate: target != d.mapping}
	if out.Migrate {
		d.migrates++
	}
	// Elasticity (§4.2.2): after the checkpoint migration, if the
	// per-joiner state exceeds M/2, split every joiner into four.
	if d.maxPerJoiner > 0 {
		perJoiner := target.ILF(float64(r), float64(s))
		if perJoiner > float64(d.maxPerJoiner)/2 {
			out.Expand = true
		}
	}
	return out
}

// Until returns how many more arrivals Evaluate needs before it can
// fire: it fires once r more R tuples or s more S tuples have arrived,
// and total more in all (the warmup). Zero means no more are needed.
func (d *Decider) Until() (r, s, total int64) {
	cr, cs := d.Counts()
	thresholdR := maxI64(int64(d.epsilon*float64(d.baseR)), d.minDelta)
	thresholdS := maxI64(int64(d.epsilon*float64(d.baseS)), d.minDelta)
	return maxI64(thresholdR-d.deltaR, 0), maxI64(thresholdS-d.deltaS, 0), maxI64(d.warmup-cr-cs, 0)
}

// NoteExpanded informs the decider that the operator expanded: both
// mapping dimensions doubled and J quadrupled.
func (d *Decider) NoteExpanded() {
	d.mapping = d.mapping.Expand()
	d.j *= 4
}

// padded applies the dummy-tuple padding of §4.2.2: the smaller
// relation is (virtually) padded so the cardinality ratio never
// exceeds J, keeping Lemma 4.1's precondition intact. The pad amount
// is at most T/J, which multiplies the competitive ratio by at most
// (1 + 1/J) ≤ 1.5.
func (d *Decider) padded(r, s int64) (float64, float64) {
	fr, fs := float64(r), float64(s)
	j := float64(d.j)
	if fr > j*fs {
		fs = fr / j
	} else if fs > j*fr {
		fr = fs / j
	}
	return fr, fs
}

// CompetitiveBound returns the proven ILF competitive-ratio bound for
// the decider's ε: (3+2ε)/(3+ε) (Theorem 4.2; 1.25 at ε = 1).
func (d *Decider) CompetitiveBound() float64 {
	return (3 + 2*d.epsilon) / (3 + d.epsilon)
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
