package core

import (
	"time"

	"repro/internal/matrix"
	"repro/internal/stats"
)

// controller is the extra role of reshuffler 0 (§3.2): it estimates
// the global cardinalities from its own sample of the stream (Alg. 1),
// runs the migration-decision algorithm, and orchestrates mapping
// changes. Migrations to a target
// several steps away execute as a chain of elementary steps, each a
// full epoch change acknowledged by every joiner before the next
// begins; this keeps at most two epochs live at any joiner, the
// invariant Alg. 3's correctness rests on.
//
// Epoch signals ride the same FIFO data links as tuples, so with the
// batched plane their ordering is a two-step contract: the controller
// broadcasts ctrlEpoch on the control channels, and every reshuffler
// flushes its pending row and column envelopes before emitting the
// kSignal envelope (reshuffler.applyCtrl). A joiner therefore still
// observes all of a reshuffler's old-epoch tuples strictly before that
// reshuffler's signal, batching notwithstanding.
type controller struct {
	dec      *Decider
	adaptive bool
	// ingest is the operator's sharded cardinality counter. Decisions
	// read only cell 0, the controller reshuffler's own: the
	// pseudo-random deal makes it an unbiased 1/N sample of the stream
	// in arrival order, so scaled by N it estimates the global counts
	// (Alg. 1) and the decider reacts to fluctuation as it arrives, even
	// when scheduling lets other reshufflers run far ahead. lastR/lastS
	// remember the cell counts consumed so far so each onObserved feeds
	// the decider only the fresh delta.
	ingest       *stats.Sharded
	lastR, lastS int64

	ackCh   chan int
	drainCh chan int

	resh []chan ctrlMsg // control links to every reshuffler
	op   *Operator

	epoch       uint32
	acksPending int
	chain       []matrix.Mapping // remaining elementary steps
	wantExpand  bool
	// stepStart timestamps the in-flight elementary step's broadcast,
	// feeding the migration-drain metric on its last ack.
	stepStart time.Time

	// Checkpoint orchestration. ckptC is the coordinator's assembly
	// channel (nil without a backend — the single gate for the whole
	// feature). Requests queue in ckptPending and are issued only
	// between migrations; ckptWaiters holds the requests the in-flight
	// checkpoint answers. ckptNext is the next id (monotonic across
	// restore), ckptLastTotal the ingest total at the last automatic
	// issue.
	ckptC         chan<- ckptEvent
	ckptReqCh     chan chan error
	ckptDoneCh    chan ckptResult
	ckptInFlight  bool
	ckptQueued    bool
	ckptWaiters   []chan error
	ckptPending   []chan error
	ckptNext      uint64
	ckptLastTotal int64
	// pacerCh (cap 1) paces CheckpointEvery: every other reshuffler
	// ticks it after each ingest run, so the controller re-checks the
	// exact merged count even while its own ring is quiet — it may
	// drain long before the others when they are scheduled behind it.
	// Decisions never read it. nil when CheckpointEvery is 0.
	pacerCh chan struct{}
	// ckptNextFull is the coordinator's verdict from the last
	// ckptResult: the next snapshot must be full — nothing is committed
	// yet, or the chain holds more dead bytes than live ones.
	ckptNextFull bool

	sourceDone bool
	drained    int
	finished   bool
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
		dec:          dec,
		adaptive:     op.cfg.Adaptive,
		ackCh:        make(chan int, 4*numJoiners+16),
		drainCh:      make(chan int, numJoiners+1),
		ckptReqCh:    make(chan chan error, 16),
		ckptDoneCh:   make(chan ckptResult, 1),
		ckptNext:     1,
		ckptNextFull: true,
		op:           op,
		deployed:     op.cfg.Initial,
		table:        table,
	}
	if op.cfg.CheckpointEvery > 0 {
		c.pacerCh = make(chan struct{}, 1)
	}
	return c
}

// obsChunk bounds how many tuples one Evaluate call absorbs. Evaluate
// folds the decider's whole accumulated delta into the checkpoint base,
// so feeding a coarse snapshot delta in one Observe would overshoot
// Alg. 2's geometric base growth and collapse many checkpoints into
// one. Chunked feeding reproduces the cadence of per-tuple observation
// from arbitrarily coarse snapshots.
const obsChunk = 128

// onObserved feeds the decision algorithm the scaled delta of the
// controller's own cell since the last call and possibly initiates a
// migration (Alg. 1 line 6). It runs inline on the controller
// reshuffler's task after each of its own ingest runs; the delta is
// fed in obsChunk-bounded slices with the checkpoint condition
// evaluated between slices, so the decider sees the same cumulative
// counts — and checkpoints at the same cardinalities — as per-tuple
// feeding would give. Nothing is decided while a previous migration
// chain is still in flight or after every input has drained, but the
// counts themselves always accumulate.
func (c *controller) onObserved() {
	c.maybeAutoCkpt()
	if !c.adaptive {
		return
	}
	snap := c.ingest.Cell(0) // the controller is reshuffler 0
	nR, nS := snap.R-c.lastR, snap.S-c.lastS
	if nR+nS == 0 {
		return
	}
	c.lastR, c.lastS = snap.R, snap.S
	scale := int64(c.op.cfg.NumReshufflers)
	nR, nS = nR*scale, nS*scale
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

// maybeAutoCkpt queues a checkpoint once CheckpointEvery tuples have
// been ingested since the last automatic issue, counted on the exact
// merged cells. It runs after each of the controller's own ingest runs
// and on each pacerCh tick, adaptive or not.
func (c *controller) maybeAutoCkpt() {
	every := c.op.cfg.CheckpointEvery
	if c.ckptC == nil || every <= 0 {
		return
	}
	snap := c.ingest.Snapshot()
	if total := snap.R + snap.S; total-c.ckptLastTotal >= every {
		c.ckptLastTotal = total
		c.ckptQueued = true
		c.maybeIssueCkpt()
	}
}

// onCkptRequest services one Operator.Checkpoint call: the reply is
// queued for the next issued checkpoint, whose barrier covers
// everything sent before the request.
func (c *controller) onCkptRequest(reply chan error) {
	if c.ckptC == nil {
		reply <- ErrNoBackend
		return
	}
	if c.finished {
		reply <- ErrFinished
		return
	}
	c.ckptPending = append(c.ckptPending, reply)
	c.ckptQueued = true
	c.maybeIssueCkpt()
}

// maybeIssueCkpt issues the queued checkpoint if nothing blocks it: a
// migration step defers it to the step's last ack (onAck), an
// in-flight checkpoint to its completion (onCkptDone). Issue order —
// begin event to the coordinator first, ctrlCkpt broadcast second —
// guarantees the coordinator knows the barrier's shape before any cut
// or snapshot arrives.
func (c *controller) maybeIssueCkpt() {
	if !c.ckptQueued || c.ckptInFlight || c.migrating() || c.finished {
		return
	}
	c.ckptQueued = false
	c.ckptInFlight = true
	c.ckptWaiters = append(c.ckptWaiters, c.ckptPending...)
	c.ckptPending = c.ckptPending[:0]
	id := c.ckptNext
	c.ckptNext++
	full := c.ckptNextFull
	allCut := make(chan struct{})
	ev := ckptEvent{
		kind:    evBegin,
		ckpt:    id,
		epoch:   c.epoch,
		numRe:   len(c.resh),
		mapping: c.deployed,
		table:   append([]int(nil), c.table...),
		full:    full,
		allCut:  allCut,
	}
	select {
	case c.ckptC <- ev:
	case <-c.op.stop:
		return
	}
	c.broadcast(ctrlMsg{kind: ctrlCkpt, ckpt: id, full: full, cut: allCut})
}

// onCkptDone completes the in-flight checkpoint: waiters get its
// outcome, then deferred work — a request queued mid-flight, the next
// chain step, the finish — proceeds.
func (c *controller) onCkptDone(res ckptResult) {
	c.ckptInFlight = false
	c.ckptNextFull = res.nextFull
	for _, reply := range c.ckptWaiters {
		reply <- res.err
	}
	c.ckptWaiters = c.ckptWaiters[:0]
	c.maybeIssueCkpt()
	c.issueNext()
}

// allDrained reports that every reshuffler's input — the controller's
// own and the plain ones' — is exhausted; no decision may be made past
// this point.
func (c *controller) allDrained() bool {
	return c.sourceDone && c.drained >= len(c.resh)-1
}

// issueNext launches the next elementary step of the pending chain, or
// the pending expansion once the chain is exhausted.
func (c *controller) issueNext() {
	if c.migrating() || c.finished || c.ckptInFlight {
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
		c.broadcast(ctrlMsg{kind: ctrlEpoch, epoch: c.epoch, mapping: next, lines: c.op.newLines(next, c.table, indexesSlots(true))})
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
			lines: c.op.newLines(newMapping, c.table, indexesSlots(true))})
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

// onAck counts joiner migration acknowledgments; when the epoch is
// fully acknowledged the next step (or the finish) proceeds.
func (c *controller) onAck(int) {
	c.acksPending--
	if c.acksPending == 0 {
		c.op.met.MigrationNanos.Add(time.Since(c.stepStart).Nanoseconds())
		c.dec.SetMapping(c.deployed)
		// Re-examine under post-migration counts: if the stream
		// drifted enough during the migration to fire a fresh
		// checkpoint, re-plan toward the newer target; otherwise
		// continue the committed chain.
		if c.adaptive && !c.allDrained() {
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

// onSourceDrained notes that the controller's own input is exhausted.
// Queued migration steps are abandoned only once every input has
// drained (noteAllDrained).
func (c *controller) onSourceDrained() {
	c.sourceDone = true
	c.noteAllDrained()
	c.tryFinish()
}

// onDrained counts plain reshufflers whose inputs are exhausted.
func (c *controller) onDrained(int) {
	c.drained++
	c.noteAllDrained()
	c.tryFinish()
}

// noteAllDrained abandons pending adaptation work once the whole
// stream has ended: queued chain steps and expansion requests are
// dropped (only an in-flight elementary step still completes), so the
// operator finishes instead of migrating state nobody will probe.
func (c *controller) noteAllDrained() {
	if !c.allDrained() {
		return
	}
	c.chain = nil
	c.wantExpand = false
}

// tryFinish broadcasts the finish command once every input is drained
// and no migration is in flight. Reshufflers then EOS their joiners.
func (c *controller) tryFinish() {
	if c.finished || !c.sourceDone || c.drained < len(c.resh)-1 || c.migrating() ||
		c.ckptInFlight || c.ckptQueued {
		return
	}
	c.finished = true
	c.broadcast(ctrlMsg{kind: ctrlFinish})
}
