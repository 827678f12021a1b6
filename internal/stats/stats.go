// Package stats implements the decentralized statistics monitoring of
// §4.1 (Algorithm 1). Incoming tuples are dealt to reshufflers
// uniformly at random, so each reshuffler's count is an unbiased 1/N
// sample of the global input. Sharded holds one counter cell per
// reshuffler; the cells serve three readers:
//
//   - the controller, which scales its own cell by N to estimate the
//     global cardinalities with no inter-task communication (Alg. 1);
//   - the CheckpointEvery pacer and the storage Reserve hint, which
//     merge every cell into the exact global counts;
//   - dummy padding, where each reshuffler checks the cardinality ratio
//     of its own cell.
package stats

import (
	"fmt"
	"sync/atomic"
)

// Snapshot is an immutable copy of a pair of counts, safe to pass
// across goroutines.
type Snapshot struct {
	R, S int64
}

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

// Sharded maintains cardinality counts with per-writer cells: each
// reshuffler owns one cell and increments it without synchronizing
// with any other writer. Cell reads one writer's own counts — the
// controller's Alg. 1 sample (scaled by the cell count) and each
// reshuffler's dummy-padding ratio; Snapshot merges the cells into the
// exact global counts the CheckpointEvery pacer and the Reserve hint
// read.
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

// ObserveN records tuples observed by the writer owning cell: one pair
// of cell-local atomic adds per ingest run.
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
