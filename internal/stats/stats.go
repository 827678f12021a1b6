// Package stats implements the decentralized statistics monitoring of
// §4.1 (Algorithm 1). Incoming tuples are routed to reshufflers
// uniformly at random, so each reshuffler sees an unbiased 1/J sample
// of the global input; scaling its local counts by J yields global
// cardinality estimates with no inter-node communication. Sharded is
// the exact per-writer form the operator's controller consumes.
package stats

import (
	"fmt"
	"sync/atomic"
)

// Estimator maintains global cardinality estimates for the two join
// inputs from one reshuffler's local sample (Algorithm 1). It is owned
// by a single task and is not safe for concurrent use, exactly like the
// per-task state in the paper.
type Estimator struct {
	j      int   // scale factor: number of machines
	localR int64 // locally observed R tuples
	localS int64
}

// NewEstimator returns an estimator scaling local counts by j.
func NewEstimator(j int) *Estimator {
	if j <= 0 {
		panic(fmt.Sprintf("stats: non-positive machine count %d", j))
	}
	return &Estimator{j: j}
}

// ObserveR records one locally received R tuple (Alg. 1 line 3,
// "scaled increment": the global estimate grows by J).
func (e *Estimator) ObserveR() { e.localR++ }

// ObserveS records one locally received S tuple.
func (e *Estimator) ObserveS() { e.localS++ }

// ObserveN records locally received tuples in bulk: the batch form of
// ObserveR/ObserveS, one pair of adds per ingest envelope instead of
// one call per tuple.
func (e *Estimator) ObserveN(r, s int64) {
	e.localR += r
	e.localS += s
}

// R returns the global cardinality estimate for R: localR * J.
func (e *Estimator) R() int64 { return e.localR * int64(e.j) }

// S returns the global cardinality estimate for S.
func (e *Estimator) S() int64 { return e.localS * int64(e.j) }

// Local returns the raw local sample counts.
func (e *Estimator) Local() (r, s int64) { return e.localR, e.localS }

// Total returns the estimated total input cardinality |R| + |S|.
func (e *Estimator) Total() int64 { return e.R() + e.S() }

// Snapshot is an immutable copy of the estimates, safe to pass across
// goroutines.
type Snapshot struct {
	R, S int64
}

// Snapshot returns the current estimates.
func (e *Estimator) Snapshot() Snapshot { return Snapshot{R: e.R(), S: e.S()} }

// PerJoiner returns the expected stored-tuple count per joiner and per
// side under an (n,m) grid: an R tuple is replicated to the m joiners
// of its random row, so each of the n·m joiners stores |R|·m/(n·m) =
// |R|/n of them; symmetrically each stores |S|/m S tuples. Joiners use
// the forecast as a storage Reserve hint, presizing their hash
// directories and arenas so steady ingest rarely rehashes.
func (s Snapshot) PerJoiner(n, m int) (r, sCount int64) {
	if n <= 0 || m <= 0 {
		return 0, 0
	}
	return s.R / int64(n), s.S / int64(m)
}

// Ratio returns |R|/|S| with S floored at 1 to avoid division by zero.
func (s Snapshot) Ratio() float64 {
	den := s.S
	if den == 0 {
		den = 1
	}
	return float64(s.R) / float64(den)
}

// shardCell is one writer's private counter pair, padded out to a full
// cache line so two writers' increments never contend on the same line
// (the cross-core "cache-line fight" sharding exists to avoid).
type shardCell struct {
	r, s atomic.Int64
	_    [48]byte
}

// Sharded maintains exact global cardinality counts with per-writer
// cells: each observer task owns one cell and increments it without
// synchronizing with any other writer, and Snapshot merges the cells
// into one global view. It replaces the sampled Estimator on paths
// where tuples are no longer dealt uniformly across observers (source
// lanes pin traffic to a home reshuffler, so no single task sees an
// unbiased 1/N sample any more) — the counts are exact rather than
// scaled estimates, so the decision algorithm consumes them with a
// scale factor of 1.
type Sharded struct {
	cells []shardCell
}

// NewSharded returns a counter set with n writer cells.
func NewSharded(n int) *Sharded {
	if n <= 0 {
		panic(fmt.Sprintf("stats: non-positive cell count %d", n))
	}
	return &Sharded{cells: make([]shardCell, n)}
}

// Cells returns the number of writer cells.
func (sh *Sharded) Cells() int { return len(sh.cells) }

// ObserveN records tuples observed by the writer owning cell: the bulk
// form, one pair of lane-local atomic adds per ingest run.
func (sh *Sharded) ObserveN(cell int, r, s int64) {
	c := &sh.cells[cell]
	if r != 0 {
		c.r.Add(r)
	}
	if s != 0 {
		c.s.Add(s)
	}
}

// Cell returns one writer's own counts. A writer reading its own cell
// sees an exact, race-free view of everything it observed — the basis
// for per-task decisions (like dummy padding) that must not race with
// other writers' concurrent increments.
func (sh *Sharded) Cell(cell int) Snapshot {
	c := &sh.cells[cell]
	return Snapshot{R: c.r.Load(), S: c.s.Load()}
}

// Snapshot merges every cell into the exact global counts. Concurrent
// writers may land increments mid-merge; the result is still a valid
// count that was true at some point during the call (each side is
// monotone non-decreasing).
func (sh *Sharded) Snapshot() Snapshot {
	var out Snapshot
	for i := range sh.cells {
		out.R += sh.cells[i].r.Load()
		out.S += sh.cells[i].s.Load()
	}
	return out
}
