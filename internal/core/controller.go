package core

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/matrix"
	"repro/internal/stats"
)

// controller is the operator's one control task (§3.2): it estimates
// the global cardinalities from one reshuffler's sample of the stream
// (Alg. 1), runs the migration-decision algorithm, orchestrates mapping
// changes, and issues, assembles and commits barrier checkpoints
// (checkpoint.go). Migrations to a target several steps away execute as
// a chain of elementary steps, each a full epoch change acknowledged by
// every joiner before the next begins; this keeps at most two epochs
// live at any joiner, the invariant Alg. 3's correctness rests on.
//
// Epoch signals ride the same FIFO data links as tuples, so with the
// batched plane their ordering is a two-step contract: the controller
// broadcasts ctrlEpoch on the control channels, and every reshuffler
// flushes its pending row and column envelopes before emitting the
// kSignal envelope (reshuffler.applyCtrl). A joiner therefore still
// observes all of a reshuffler's old-epoch tuples strictly before that
// reshuffler's signal, batching notwithstanding.
//
// The task cannot deadlock against the data plane. Its only blocking
// operations are its broadcasts, its checkpoint commit and its own
// select. A broadcast never waits: each reshuffler consumes a command
// (its signal reaches every joiner, or its cut arrives) before the
// step or checkpoint it starts can end, so a control channel holds at
// most one command. Nor does its answer to reshuffler 0's sample: the
// one-slot decided channel is empty, since reshuffler 0 takes each
// answer before it sends again. A commit may wait on the backend, but
// no migration step or expansion is issued while a checkpoint is in
// flight and no checkpoint while a step is, so no joiner is waiting to
// ack. Every cut and capture of that checkpoint is in before the
// commit starts. So a joiner or reshuffler blocked on the task's
// channels is only ever waiting for its select, and the select serves
// each channel whenever a send is pending.
type controller struct {
	dec      *Decider
	adaptive bool
	// ingest is the operator's sharded cardinality counter. Decisions
	// read only reshuffler 0's cell: the pseudo-random deal makes it an
	// unbiased 1/N sample of the stream in arrival order, so scaled by N
	// it estimates the global counts (Alg. 1). lastR/lastS are the cell
	// counts taken in so far; gate hands the cell over (sampleGate).
	ingest       *stats.Sharded
	lastR, lastS int64
	gate         *sampleGate

	// ackCh carries joiner migration acks, drainCh one report from each
	// reshuffler whose input is exhausted (one slot per reshuffler, so a
	// report never blocks), and ticks (one slot, nil unless
	// CheckpointEvery is set) the reshufflers' notes that they ingested
	// a run, which pace CheckpointEvery.
	ackCh   chan int
	drainCh chan int
	ticks   chan struct{}

	resh []chan ctrlMsg // control links to every reshuffler
	op   *Operator

	epoch       uint32
	acksPending int
	chain       []matrix.Mapping // remaining elementary steps
	wantExpand  bool
	// stepStart timestamps the in-flight elementary step's broadcast,
	// feeding the migration-drain metric on its last ack.
	stepStart time.Time

	// Checkpoint orchestration. ckptC carries the barrier contributions
	// (reshuffler cuts, joiner captures); it is nil without a backend —
	// the single gate for the whole feature. Requests queue in
	// ckptPending and are issued only between migrations; ckpt is the
	// in-flight checkpoint's assembly (nil when none). ckptNext is the
	// next id (monotonic across restore), ckptLastTotal the ingest total
	// when the last checkpoint was issued.
	ckptC         chan ckptEvent
	ckptReqCh     chan chan error
	ckpt          *ckptBuild
	ckptQueued    bool
	ckptPending   []chan error
	ckptNext      uint64
	ckptLastTotal int64
	// holdAt, when positive, holds the queued checkpoint until
	// reshuffler 0 has ingested that many items (sampleGate).
	holdAt int64

	drained  int
	finished bool
	// deployed tracks the mapping actually running (the decider's
	// Mapping() moves ahead to the chain target at decision time).
	deployed matrix.Mapping
	table    []int
}

// newController builds op's controller in op's initial mapping. dec is
// nil on the hash route, which is never adaptive.
func newController(dec *Decider, op *Operator) *controller {
	numJoiners := op.cfg.J
	table := make([]int, numJoiners)
	for i := range table {
		table[i] = i
	}
	c := &controller{
		dec:       dec,
		adaptive:  op.cfg.Adaptive,
		ingest:    op.ingest,
		ackCh:     make(chan int, 4*numJoiners+16),
		drainCh:   make(chan int, op.cfg.NumReshufflers),
		ckptReqCh: make(chan chan error, 16),
		ckptNext:  1,
		op:        op,
		deployed:  op.cfg.Initial,
		table:     table,
		gate:      &sampleGate{samples: make(chan stats.Snapshot), decided: make(chan struct{}, 1)},
	}
	c.publishGate()
	if op.cfg.CheckpointEvery > 0 {
		c.ticks = make(chan struct{}, 1)
	}
	if op.cfg.Backend != nil {
		c.ckptC = make(chan ckptEvent, 64)
	}
	return c
}

// run is the control task. It returns once it has broadcast
// ctrlFinish, or when the operator stops.
func (c *controller) run() error {
	for !c.finished {
		select {
		case <-c.ackCh:
			c.onAck()
		case id := <-c.drainCh:
			c.onDrained(id)
		case cell := <-c.gate.samples:
			c.observe(cell)
			c.gate.decided <- struct{}{} // one slot, and reshuffler 0 waits for it
		case <-c.ticks:
			c.maybeAutoCkpt()
		case reply := <-c.ckptReqCh:
			c.onCkptRequest(reply)
		case ev := <-c.ckptC:
			c.onCkptEvent(ev)
		case <-c.op.stop:
			return nil
		}
		c.publishGate()
		c.releaseHold()
	}
	return nil
}

// sampleGate is reshuffler 0's hand-off to the decider of an adaptive
// operator. Alg. 2 fires only once a relation's arrivals since its last
// checkpoint reach a threshold, so the control task publishes the cell
// counts at which the next evaluation can fire (at); reshuffler 0 hands
// its cell over (samples) only after a run that reaches them and waits
// until the decision is taken (decided). A decision thus lands in the
// run that fires it, as if reshuffler 0 decided inline, for one
// hand-off per firing evaluation: O(log n) over n tuples at ε = 1.
// The gate also holds a requested checkpoint until reshuffler 0 has
// ingested (consumed) what was dealt to it before the request. Each
// side stores its field before it reads the other's, so one of them
// sees the other's write and a hold cannot be missed.
type sampleGate struct {
	at       atomic.Pointer[gatePoint]
	consumed atomic.Int64
	samples  chan stats.Snapshot
	decided  chan struct{}
}

// gatePoint is where the control task next needs reshuffler 0's cell:
// an evaluation can fire at R ≥ r or S ≥ s, with R+S ≥ total for the
// warmup, and a held checkpoint waits for consumed ingested items.
type gatePoint struct{ r, s, total, consumed int64 }

// pass hands reshuffler 0's cell after a run that took its ingested
// count to consumed over if the run reaches the gate, and waits for the
// decision.
func (g *sampleGate) pass(cell stats.Snapshot, consumed int64, stop <-chan struct{}) {
	g.consumed.Store(consumed)
	p := g.at.Load()
	if consumed < p.consumed && (cell.R < p.r && cell.S < p.s || cell.R+cell.S < p.total) {
		return
	}
	select {
	case g.samples <- cell:
	case <-stop:
		return
	}
	select {
	case <-g.decided:
	case <-stop:
	}
}

// publishGate moves the gate to where the decider's next evaluation can
// fire and to the held checkpoint's position. Decisions shut while a
// step is in flight (onAck re-examines at its end) and for good once
// nothing more will be decided.
func (c *controller) publishGate() {
	p := gatePoint{math.MaxInt64, math.MaxInt64, math.MaxInt64, math.MaxInt64}
	if c.adaptive && !c.migrating() && !c.allDrained() && !c.finished {
		// The decider sees each cell tuple as N arrivals.
		n := int64(c.op.cfg.NumReshufflers)
		r, s, total := c.dec.Until()
		p = gatePoint{c.lastR + ceilDiv(r, n), c.lastS + ceilDiv(s, n), c.lastR + c.lastS + ceilDiv(total, n), p.consumed}
	}
	if c.holdAt > 0 {
		p.consumed = c.holdAt
	}
	if cur := c.gate.at.Load(); cur == nil || *cur != p {
		c.gate.at.Store(&p)
	}
}

// releaseHold lifts the hold on a requested checkpoint once reshuffler
// 0 has ingested what was dealt to it before the request, takes the
// decisions that input fires, and issues the checkpoint if it can.
func (c *controller) releaseHold() {
	if c.holdAt == 0 || c.gate.consumed.Load() < c.holdAt {
		return
	}
	c.holdAt = 0
	c.observe(c.ingest.Cell(0))
	c.maybeIssueCkpt()
	c.publishGate()
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// obsChunk bounds how many tuples one Evaluate call absorbs. Evaluate
// folds the decider's whole accumulated delta into the checkpoint base,
// so feeding a coarse snapshot delta in one Observe would overshoot
// Alg. 2's geometric base growth and collapse many checkpoints into
// one. Chunked feeding reproduces the cadence of per-tuple observation
// from arbitrarily coarse snapshots.
const obsChunk = 128

// absorb returns the scaled delta of reshuffler 0's cell since the
// counts last taken in, and takes cell in.
func (c *controller) absorb(cell stats.Snapshot) (nR, nS int64) {
	nR, nS = cell.R-c.lastR, cell.S-c.lastS
	if nR+nS <= 0 {
		return 0, 0 // nothing new, or a cell read before the last one
	}
	c.lastR, c.lastS = cell.R, cell.S
	scale := int64(c.op.cfg.NumReshufflers)
	return nR * scale, nS * scale
}

// observe feeds the decider the scaled delta of reshuffler 0's cell in
// obsChunk slices, evaluating Alg. 2's condition between slices, and
// possibly initiates a migration (Alg. 1 line 6). Nothing is decided
// while a migration step is in flight or after every input has
// drained, but the counts always accumulate.
func (c *controller) observe(cell stats.Snapshot) {
	nR, nS := c.absorb(cell)
	for nR+nS > 0 {
		dR, dS := nR, nS
		if total := nR + nS; total > obsChunk {
			// Split the chunk proportionally to the side mix so an
			// interleaved stream checkpoints on blended counts.
			dR = nR * obsChunk / total
			dS = obsChunk - dR
			if dS > nS {
				dS = nS
				dR = obsChunk - dS
			}
		}
		c.dec.Observe(dR, dS)
		nR -= dR
		nS -= dS
		if c.migrating() || c.allDrained() {
			// Keep accumulating, but leave decisions to the
			// post-migration re-examination in onAck.
			c.dec.Observe(nR, nS)
			return
		}
		out := c.dec.Evaluate()
		if out.Migrate {
			c.chain = c.deployed.StepsTo(out.Target)
		}
		c.wantExpand = c.wantExpand || out.Expand
		c.issueNext()
	}
}

func (c *controller) migrating() bool { return c.acksPending > 0 }

// allDrained reports that every reshuffler's input is exhausted; no
// decision may be made past this point.
func (c *controller) allDrained() bool { return c.drained == c.op.cfg.NumReshufflers }

// issueNext launches the next elementary step of the pending chain, or
// the pending expansion once the chain is exhausted.
func (c *controller) issueNext() {
	if c.migrating() || c.finished || c.ckpt != nil {
		return
	}
	if len(c.chain) > 0 {
		next := c.chain[0]
		c.chain = c.chain[1:]
		c.epoch++
		c.table = stepTable(c.table, matrix.NewTransition(c.deployed, next))
		c.deployed = next
		c.acksPending = len(c.table)
		c.op.met.Migrations.Add(1)
		c.stepStart = time.Now()
		c.broadcast(ctrlMsg{kind: ctrlEpoch, epoch: c.epoch, mapping: next, lines: c.op.newLines(next, c.table, false)})
		return
	}
	if c.wantExpand {
		c.wantExpand = false
		if max := c.op.cfg.MaxJoiners; max > 0 && len(c.table)*4 > max {
			// Elastic growth is capped; stay at the current size.
			c.tryFinish()
			return
		}
		c.epoch++
		newMapping := c.deployed.Expand()
		// Spawn the three children of every joiner before any
		// reshuffler adopts the new mapping, so signals and new-epoch
		// tuples always find a live task.
		c.op.spawnChildren(c.table, c.epoch, newMapping)
		c.table = expandTable(c.table, c.deployed)
		c.deployed = newMapping
		c.dec.NoteExpanded()
		c.acksPending = len(c.table)
		c.op.met.Expansions.Add(1)
		c.stepStart = time.Now()
		c.broadcast(ctrlMsg{kind: ctrlEpoch, epoch: c.epoch, mapping: newMapping, expand: true,
			lines: c.op.newLines(newMapping, c.table, false)})
		return
	}
	c.tryFinish()
}

func (c *controller) broadcast(m ctrlMsg) {
	for _, ch := range c.resh {
		select {
		case ch <- m:
		case <-c.op.stop:
			return
		}
	}
}

// onAck counts one joiner's migration acknowledgment; when the epoch is
// fully acknowledged the next step (or the finish) proceeds.
func (c *controller) onAck() {
	c.acksPending--
	if c.acksPending == 0 {
		c.op.met.MigrationNanos.Add(time.Since(c.stepStart).Nanoseconds())
		c.dec.SetMapping(c.deployed)
		// Re-examine under post-migration counts: if the stream
		// drifted enough during the migration to fire a fresh
		// checkpoint, re-plan toward the newer target; otherwise
		// continue the committed chain.
		if c.adaptive && !c.allDrained() {
			// The gate was shut during the step: take in what
			// reshuffler 0 ingested meanwhile.
			c.dec.Observe(c.absorb(c.ingest.Cell(0)))
			if out := c.dec.Evaluate(); out.Checked {
				if out.Migrate {
					c.chain = c.deployed.StepsTo(out.Target)
				}
				c.wantExpand = c.wantExpand || out.Expand
			}
		}
		// A checkpoint queued during the step slots in before the next
		// one: the barrier then composes with the chain instead of
		// waiting out an arbitrarily long sequence of steps.
		c.maybeIssueCkpt()
		c.issueNext()
	}
}

// onDrained counts reshuffler id, whose input is exhausted, after
// observing what it ingested last. Once every input has drained,
// pending adaptation work is abandoned: queued chain steps and
// expansion requests are dropped (only an in-flight elementary step
// still completes), so the operator finishes instead of migrating
// state nobody will probe.
func (c *controller) onDrained(id int) {
	c.maybeAutoCkpt()
	if id == 0 && c.adaptive {
		c.observe(c.ingest.Cell(0))
	}
	c.drained++
	if c.allDrained() {
		c.chain = nil
		c.wantExpand = false
	}
	c.tryFinish()
}

// tryFinish broadcasts the finish command once every input is drained
// and no migration or checkpoint is in flight or queued. Reshufflers
// then EOS their joiners, and the control task returns.
func (c *controller) tryFinish() {
	if c.finished || !c.allDrained() || c.migrating() || c.ckpt != nil || c.ckptQueued {
		return
	}
	c.finished = true
	c.broadcast(ctrlMsg{kind: ctrlFinish})
}
