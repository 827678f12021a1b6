package baseline

import (
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/metrics"
)

// RangeBand is a prototype of the content-sensitive theta-join
// operator the paper leaves as future work (§6): "in such
// low-selectivity joins, the join matrix contains large regions where
// the join condition never holds. These regions need not be assigned
// joiners."
//
// For a band predicate |r.Key - s.Key| <= w over a known key domain,
// both relations are range-partitioned into equal-width buckets (rows
// for R, columns for S). A matrix cell (i, j) can contain matches only
// if the two buckets' ranges come within w of each other, so only the
// cells of the diagonal band are materialized and assigned to workers;
// a tuple is routed to the live cells of its row or column — O(1)
// cells instead of the grid operator's m (or n) — cutting both
// replication and storage for low-selectivity bands.
//
// The prototype is static and content-sensitive: it trades the grid
// operator's skew immunity and adaptivity for the band savings,
// exactly the tension §6 points out ("such an operator shares many
// common features with our operator, but its design poses additional
// challenges").
type RangeBand struct {
	pred    join.Predicate
	n       int   // buckets per relation
	lo, hi  int64 // key domain [lo, hi)
	width   int64
	workers int

	// cellWorker maps an active cell (i*n+j) to its worker; -1 = dead.
	cellWorker []int
	inboxes    []chan cellMsg
	emitCfg    join.Emit
	met        *metrics.Operator
	runner     dataflow.Runner
	done       bool
}

type cellMsg struct {
	cell int
	t    join.Tuple
}

// RangeBandConfig configures the prototype.
type RangeBandConfig struct {
	// Workers is the number of machines.
	Workers int
	// Buckets is the number of key-range buckets per relation
	// (default: Workers).
	Buckets int
	// Lo, Hi bound the join-key domain.
	Lo, Hi int64
	// Width is the band half-width.
	Width int64
	// Residual optionally filters structurally matching pairs.
	Residual func(r, s join.Tuple) bool
	// Emit receives results; must not block.
	Emit join.Emit
	// QueueCap is the per-worker inbox capacity (default 1024).
	QueueCap int
}

// NewRangeBand builds the operator; call Start before Send.
func NewRangeBand(cfg RangeBandConfig) *RangeBand {
	if cfg.Workers <= 0 || cfg.Hi <= cfg.Lo || cfg.Width < 0 {
		panic(fmt.Sprintf("baseline: RangeBand config %+v", cfg))
	}
	if cfg.Buckets <= 0 {
		cfg.Buckets = cfg.Workers
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 1024
	}
	if cfg.Emit == nil {
		cfg.Emit = func(join.Pair) {}
	}
	rb := &RangeBand{
		pred:    join.BandJoin("range-band", cfg.Width, cfg.Residual),
		n:       cfg.Buckets,
		lo:      cfg.Lo,
		hi:      cfg.Hi,
		width:   cfg.Width,
		workers: cfg.Workers,
		met:     metrics.NewOperator(cfg.Workers),
	}
	// Activate exactly the cells whose bucket ranges can satisfy the
	// band, and deal them round-robin to workers.
	rb.cellWorker = make([]int, rb.n*rb.n)
	next := 0
	for i := 0; i < rb.n; i++ {
		for j := 0; j < rb.n; j++ {
			if rb.cellLive(i, j) {
				rb.cellWorker[i*rb.n+j] = next % cfg.Workers
				next++
			} else {
				rb.cellWorker[i*rb.n+j] = -1
			}
		}
	}
	for w := 0; w < cfg.Workers; w++ {
		rb.inboxes = append(rb.inboxes, make(chan cellMsg, cfg.QueueCap))
	}
	rb.emitCfg = cfg.Emit
	return rb
}

// cellLive reports whether buckets i (R) and j (S) can contain a
// matching pair: their key ranges come within the band width.
func (rb *RangeBand) cellLive(i, j int) bool {
	riLo, riHi := rb.bucketRange(i)
	sjLo, sjHi := rb.bucketRange(j)
	// Closest approach of the two ranges.
	switch {
	case riHi < sjLo:
		return sjLo-riHi <= rb.width
	case sjHi < riLo:
		return riLo-sjHi <= rb.width
	default:
		return true // overlapping ranges
	}
}

// bucketRange returns the inclusive key range of bucket b.
func (rb *RangeBand) bucketRange(b int) (lo, hi int64) {
	span := rb.hi - rb.lo
	lo = rb.lo + span*int64(b)/int64(rb.n)
	hi = rb.lo + span*int64(b+1)/int64(rb.n) - 1
	return
}

// bucketOf returns the bucket of a key, clamped to the domain.
func (rb *RangeBand) bucketOf(key int64) int {
	if key < rb.lo {
		return 0
	}
	if key >= rb.hi {
		return rb.n - 1
	}
	return int((key - rb.lo) * int64(rb.n) / (rb.hi - rb.lo))
}

// LiveCells returns the number of materialized cells, against the n*n
// of a full content-sensitive grid — the §6 saving.
func (rb *RangeBand) LiveCells() int {
	live := 0
	for _, w := range rb.cellWorker {
		if w >= 0 {
			live++
		}
	}
	return live
}

// Start launches the workers. Each worker keeps one local symmetric
// join per assigned cell, so a pair meeting in two adjacent cells is
// still emitted exactly once: a pair's home cell is (bucket(r),
// bucket(s)), and tuples are routed to every live cell of their row or
// column, so both tuples reach exactly their home cell's worker.
func (rb *RangeBand) Start() {
	for w := 0; w < rb.workers; w++ {
		w := w
		rb.runner.Go(fmt.Sprintf("rangeband-%d", w), func() error {
			met := rb.met.JoinerStats(w)
			cells := make(map[int]*join.Local)
			run := make([]join.Tuple, 1)
			var pairs []join.Pair
			for m := range rb.inboxes[w] {
				met.InputTuples.Add(1)
				met.InputBytes.Add(m.t.Bytes())
				lc := cells[m.cell]
				if lc == nil {
					lc = join.NewLocal(rb.pred)
					cells[m.cell] = lc
				}
				run[0] = m.t
				lc.AddBatchCollect(run, &pairs)
				met.OutputPairs.Add(int64(len(pairs)))
				for _, p := range pairs {
					rb.emitCfg(p)
				}
				pairs = pairs[:0]
			}
			return nil
		})
	}
}

// Send routes one tuple to the live cells of its bucket row (R) or
// column (S).
func (rb *RangeBand) Send(t join.Tuple) {
	b := rb.bucketOf(t.Key)
	if t.Rel == matrix.SideR {
		for j := 0; j < rb.n; j++ {
			rb.sendCell(b*rb.n+j, t)
		}
	} else {
		for i := 0; i < rb.n; i++ {
			rb.sendCell(i*rb.n+b, t)
		}
	}
}

func (rb *RangeBand) sendCell(cell int, t join.Tuple) {
	w := rb.cellWorker[cell]
	if w < 0 {
		return
	}
	rb.met.RoutedMessages.Add(1)
	rb.inboxes[w] <- cellMsg{cell: cell, t: t}
}

// Finish closes the inboxes and waits for workers.
func (rb *RangeBand) Finish() error {
	if rb.done {
		return nil
	}
	rb.done = true
	for _, in := range rb.inboxes {
		close(in)
	}
	return rb.runner.Wait()
}

// Metrics exposes per-worker counters.
func (rb *RangeBand) Metrics() *metrics.Operator { return rb.met }
