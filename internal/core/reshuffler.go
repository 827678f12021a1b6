package core

import (
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// reshuffler is one reshuffler task (§3.2): it pulls the tuples dealt
// to its source ring, counts them in its own cell of the operator's
// cardinality counters (the decentralized monitoring of Alg. 1), and
// routes each one: on the grid route it draws the routing value u and
// fans the tuple out to the joiners of its row or column partition, on
// the hash route it sends the tuple to the one joiner its key hashes
// to. Decisions, epochs and checkpoints belong to the control task
// (controller.go); a reshuffler only reports to it: a tick after each
// ingest run when CheckpointEvery paces checkpoints, its barrier cuts,
// and its drain. Reshuffler 0 also hands its cell to the decider at
// the runs that can fire a decision (sampleGate).
//
// Routed tuples are not pushed one at a time: on the grid route each
// grid row (R) and grid column (S) has a pending envelope that ships,
// when it flushes, to every joiner of that row or column (see batch.go);
// the hash route keeps one per joiner and side. The flush discipline
// preserves the protocol's per-link FIFO invariant: every pending
// envelope is flushed before an epoch signal, checkpoint marker or EOS
// is emitted on the same links, so a joiner still sees all of a
// reshuffler's old-epoch tuples strictly before its signal.
type reshuffler struct {
	id  int
	rng *rand.Rand
	// ingest is the operator's sharded cardinality counter; this task
	// writes cell id. ticks takes a note of each ingest run (nil unless
	// CheckpointEvery is set), and gate is the decider's hand-off (nil
	// unless this is reshuffler 0 of an adaptive operator); both serve
	// noteObserved.
	ingest *stats.Sharded
	ticks  chan<- struct{}
	gate   *sampleGate

	mapping matrix.Mapping
	table   []int
	epoch   uint32

	// seed feeds the deterministic routing mix (join.UMix): every reshuffler
	// shares the operator seed, so a tuple's partition depends only on
	// its sequence number — replay after restore routes it identically
	// no matter which reshuffler handles it the second time.
	seed uint64
	// consumed counts the items this task has ingested from its source
	// ring, in ring order: its barrier cut into the replay log. ckptC
	// is the control task's checkpoint assembly channel (nil without a
	// backend).
	consumed int64
	ckptC    chan<- ckptEvent

	// source is nil once the ring is closed and drained.
	source  <-chan []join.Tuple
	ctrlCh  chan ctrlMsg
	topo    *topology
	opm     *metrics.Operator
	lat     *metrics.LatencySampler
	drainCh chan<- int
	// stop is the operator's cancellation signal; every blocking wait
	// in the task loop selects on it.
	stop <-chan struct{}

	// inBuf coalesces source envelopes (per-tuple Send wraps each
	// tuple in a singleton) into one ingest run per burst, so the
	// per-run amortizations of ingestBatch apply even when the producer
	// never batches.
	inBuf []join.Tuple

	// padDummies enables the §4.2.2 dummy-tuple padding: when the
	// local cardinality-ratio estimate exceeds J, pad the smaller
	// relation so Lemma 4.1's precondition holds physically.
	padDummies bool
	// hashed selects the hash route (hashBatch) over the grid route.
	hashed bool

	// batchSize is the envelope capacity in tuples; 1 degrades to one
	// envelope per routed tuple. linger bounds the buffered residence time
	// of a tuple while the loop stays busy (<=0: no timer). blockCap
	// caps every envelope at a block as well (Operator.sharesBlocks).
	batchSize int
	linger    time.Duration
	blockCap  bool

	// out holds the pending envelope per slot (see slotDests), sized
	// lazily for the current mapping; dirty lists the slots holding
	// tuples and inDirty dedupes it. dests is scratch for a column's
	// joiner ids; byPeer is broadcast's scratch for grouping them by the
	// worker hosting them.
	out     []*envelope
	dirty   []int
	inDirty []bool
	dests   []int
	byPeer  [][]int
	// lines is, per slot, the writer of the slot's grid line in the
	// current epoch, shared with every other reshuffler
	// (Operator.newLines); nil when the epoch's lines write nothing.
	lines []line
	// cut closes once every reshuffler has pushed the checkpoint marker
	// this task pushed last; nil when no barrier holds its ingest.
	cut <-chan struct{}

	lingerT     *time.Timer
	lingerArmed bool
}

// sourceBurst bounds how many tuples the loop ingests before servicing
// the control and linger channels again, so a firehose source cannot
// stall epoch commands indefinitely: sendItems caps every source
// envelope at sourceBurst tuples, and a burst stops taking envelopes
// once it holds that many.
const sourceBurst = 64

// pullBurst ingests env, when non-nil, and the envelopes the source
// holds after it, coalesced into one run of fewer than 2·sourceBurst
// tuples. It returns dry=true when the burst ended because the source
// ran out (the only state that counts as idle) and eos=true when the
// source is closed and drained.
func (r *reshuffler) pullBurst(env []join.Tuple) (dry, eos bool) {
	buf := r.inBuf[:0]
	for {
		buf = append(buf, env...)
		putItems(env)
		if len(buf) >= sourceBurst {
			break
		}
		var ok bool
		select {
		case env, ok = <-r.source:
			if ok {
				continue
			}
			eos = true
		default:
			dry = true
		}
		break
	}
	r.ingestBatch(buf)
	r.inBuf = buf[:0]
	return dry, eos
}

// run is the reshuffler task: bursts of ingest while the source is hot,
// the control and linger channels between bursts, and a blocking wait
// when it is idle. A checkpoint barrier (cut) holds ingest: only the
// blocking wait runs. Once its input is drained, the task reports it
// and serves control commands until the finish.
func (r *reshuffler) run() error {
	var env []join.Tuple // taken by the blocking wait; the next burst ingests it first
	for {
		if r.cut == nil {
			// dry records whether the burst ended because the source ran
			// out — only then is the loop idle and allowed to flush
			// partial batches; exhausting the burst quota under a hot
			// source is not idleness.
			dry, eos := r.pullBurst(env)
			env = nil
			if eos {
				r.endInput()
			}
			// Pump pending control traffic without blocking.
			for pumping := true; pumping; {
				select {
				case c := <-r.ctrlCh:
					if r.applyCtrl(c) {
						return nil
					}
				case <-r.lingerCh():
					r.lingerArmed = false
					r.flushAll(&r.opm.BatchFlushLinger)
				default:
					pumping = false
				}
			}
			if !dry && !eos {
				continue // source still hot: keep the envelopes filling
			}
			// Idle: ship partial batches, then block for the next event.
			r.flushAll(&r.opm.BatchFlushIdle)
		}
		source := r.source // nil while a barrier holds, even one begun above
		if r.cut != nil {
			source = nil
		}
		select {
		case c := <-r.ctrlCh:
			if r.applyCtrl(c) {
				return nil
			}
		case <-r.cut:
			r.cut = nil
		case e, ok := <-source:
			if !ok {
				r.endInput()
			}
			env = e
		case <-r.lingerCh():
			r.lingerArmed = false
			r.flushAll(&r.opm.BatchFlushLinger)
		case <-r.stop:
			return nil
		}
	}
}

// endInput runs once the source ring is closed and drained: it ships
// the partial envelopes and reports the drain to the control task. The
// task must not exit yet — joiners wait for its signals during any
// still-running migration — so it keeps serving control commands until
// the finish, when it EOSes every joiner.
func (r *reshuffler) endInput() {
	r.source = nil
	r.flushAll(&r.opm.BatchFlushIdle)
	r.drainCh <- r.id // never blocks: one slot per reshuffler
}

// lingerCh returns the linger timer's channel, or nil (never ready)
// when the timer is disarmed.
func (r *reshuffler) lingerCh() <-chan time.Time {
	if !r.lingerArmed {
		return nil
	}
	return r.lingerT.C
}

// armLinger starts the partial-batch flush timer on the first buffered
// message after a flush.
func (r *reshuffler) armLinger() {
	if r.linger <= 0 || r.lingerArmed {
		return
	}
	if r.lingerT == nil {
		r.lingerT = time.NewTimer(r.linger)
	} else {
		r.lingerT.Reset(r.linger)
	}
	r.lingerArmed = true
}

// disarmLinger stops the timer, draining a concurrent fire so a stale
// tick cannot trigger a spurious flush later.
func (r *reshuffler) disarmLinger() {
	if !r.lingerArmed {
		return
	}
	if !r.lingerT.Stop() {
		select {
		case <-r.lingerT.C:
		default:
		}
	}
	r.lingerArmed = false
}

// buffer appends one routed tuple, with its routing value u — derived
// when the reshuffler computed it as join.UMix(seed, Seq) — to slot s's
// pending envelope, shipping the envelope when it reaches capacity:
// the batch size, or a block (join.WindowRows) on every line of an
// operator whose joiners store windows, since a line's writer here or
// a worker's receive loop writes a body into at most two blocks, the
// open one and the next.
func (r *reshuffler) buffer(s int, t *join.Tuple, u uint64, derived bool) {
	e := r.out[s]
	if e == nil {
		e = getEnvelope(r.batchSize)
		e.hdr = message{kind: kTuple, from: r.id, epoch: r.epoch}
		e.derived = true
		r.out[s] = e
	}
	e.derived = e.derived && derived
	e.tuples = append(e.tuples, *t)
	e.tuples[len(e.tuples)-1].U = u
	e.bytes += t.Bytes()
	if n := len(e.tuples); n >= r.batchSize || n == join.WindowRows && r.blockCap {
		r.ship(s, &r.opm.BatchFlushFull)
		return
	}
	if !r.inDirty[s] {
		r.inDirty[s] = true
		r.dirty = append(r.dirty, s)
	}
	r.armLinger()
}

// line returns the writer of slot s's line, or nil when the line
// writes neither shared blocks nor a line tree.
func (r *reshuffler) line(s int) *line {
	if r.lines == nil || !r.lines[s].w.Shared() && r.lines[s].tree == nil {
		return nil
	}
	return &r.lines[s]
}

// flushAll ships every pending partial envelope, crediting the flush to
// the given cause counter.
func (r *reshuffler) flushAll(cause *atomic.Int64) {
	if len(r.dirty) == 0 {
		return
	}
	for _, s := range r.dirty {
		if r.out[s] != nil {
			r.ship(s, cause)
		}
		r.inDirty[s] = false
	}
	r.dirty = r.dirty[:0]
	r.disarmLinger()
}

// ship flushes slot s's pending envelope to every joiner of its row or
// column (on the hash route, to its one joiner), crediting the flush to
// cause. On a line with a writer it writes the body into the line's
// blocks, as one window or two (join.BlockWriter.AppendPacked), or on a
// band line inserts it into the line's tree under the tree's write lock
// (join.LineTree.Append, which releases that lock before the push), and
// pushes the envelope under the line's lock, so the line's joiners take
// its windows in writer order, whichever reshuffler shipped them. The
// push may block on a full inbox with the line's lock held: joiners
// never wait on a reshuffler, nor hold a tree's read lock while they
// wait on anything, and pushData gives up once the operator stops.
func (r *reshuffler) ship(s int, cause *atomic.Int64) {
	e := r.out[s]
	r.out[s] = nil
	cause.Add(1)
	r.opm.BatchesSent.Add(1)
	r.opm.BatchedMessages.Add(int64(len(e.tuples)))
	if l := r.line(s); l != nil {
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.tree != nil {
			e.win = l.tree.Append(e.tuples)
		} else {
			e.win, e.rest = l.w.AppendPacked(e.tuples, e.derived)
		}
	}
	r.broadcast(r.slotDests(s), e)
}

// slotDests returns the joiner ids slot s ships to.
func (r *reshuffler) slotDests(s int) []int {
	if r.hashed {
		r.dests = append(r.dests[:0], s/2)
		return r.dests
	}
	m := r.mapping
	p := s % (m.N + m.M)
	if p < m.N {
		return r.table[p*m.M : (p+1)*m.M]
	}
	r.dests = r.dests[:0]
	for row := 0; row < m.N; row++ {
		r.dests = append(r.dests, r.table[row*m.M+p-m.N])
	}
	return r.dests
}

// resetSlots sizes the pending-envelope slots for the current mapping.
// On the grid route slots 0..N-1 are the rows (R tuples) and N..N+M-1
// the columns (S tuples); on the hash route slot 2·id+side belongs to
// joiner id. Called with nothing pending.
func (r *reshuffler) resetSlots() {
	n := r.mapping.N + r.mapping.M
	if r.hashed {
		n = 2 * r.mapping.J()
	}
	r.out = make([]*envelope, n)
	r.inDirty = make([]bool, n)
}

// broadcast pushes e onto the data link of every joiner in ids, each
// holding one reference. All references are taken before the first
// push, so no destination can recycle e while others still wait for it.
func (r *reshuffler) broadcast(ids []int, e *envelope) {
	if r.topo.remote != nil {
		r.broadcastRemote(ids, e)
		return
	}
	e.refs.Store(int32(len(ids)))
	for _, id := range ids {
		r.topo.pushData(id, e)
	}
}

// broadcastRemote is broadcast on a coordinator: ids are grouped by the
// worker hosting them, and e crosses each worker's link once, as one
// frame naming all of that worker's ids, so a row or column costs one
// encoding per worker it spans, not one per joiner. Each local joiner
// and each peer holds one reference. ids come from the current table,
// so the grouping follows every migration step.
func (r *reshuffler) broadcastRemote(ids []int, e *envelope) {
	refs := 0
	for _, id := range ids {
		p := r.topo.remote[id]
		if p == nil {
			refs++
			continue
		}
		for len(r.byPeer) <= p.idx {
			r.byPeer = append(r.byPeer, nil)
		}
		if len(r.byPeer[p.idx]) == 0 {
			refs++
		}
		r.byPeer[p.idx] = append(r.byPeer[p.idx], id)
	}
	e.refs.Store(int32(refs))
	for _, id := range ids {
		if r.topo.remote[id] == nil {
			r.topo.pushData(id, e)
		}
	}
	for i, d := range r.byPeer {
		if len(d) > 0 {
			r.topo.remote[d[0]].sendData(d, e)
			r.byPeer[i] = d[:0]
		}
	}
}

// broadcastCtrl ships a control message (signal, checkpoint marker,
// EOS) alone, in one header-only envelope shared by every joiner of the
// current table; the caller has already flushed pending data.
func (r *reshuffler) broadcastCtrl(m message) {
	e := getEnvelope(0)
	e.hdr = m
	r.broadcast(r.table, e)
}

// applyCtrl handles a controller command, returning true on finish.
// Both commands are per-link barriers: pending batches flush first so
// every already-routed tuple precedes the signal or EOS on its link.
func (r *reshuffler) applyCtrl(c ctrlMsg) bool {
	r.flushAll(&r.opm.BatchFlushSignal)
	switch c.kind {
	case ctrlFinish:
		r.broadcastCtrl(message{kind: kEOS, from: r.id})
		return true
	case ctrlCkpt:
		// Barrier marker on every data link (pending batches are already
		// flushed, so each joiner sees exactly this task's pre-barrier
		// tuples before the marker), then the replay cut — how many
		// items this task consumed before the barrier — to the control
		// task. The task ingests nothing more until every reshuffler's
		// cut is in (ckptBuild.allCut). The marker's checkpoint id rides
		// in tuple.Seq and the force-full flag in epoch.
		ep := uint32(0)
		if c.full {
			ep = 1
		}
		r.broadcastCtrl(message{kind: kCkpt, from: r.id, epoch: ep, tuple: join.Tuple{Seq: c.ckpt}})
		if r.ckptC != nil {
			select {
			case r.ckptC <- ckptEvent{kind: evCut, idx: r.id, cut: r.consumed}:
			case <-r.stop:
			}
			r.cut = c.cut
		}
	case ctrlEpoch:
		if c.expand {
			r.table = expandTable(r.table, r.mapping)
			r.mapping = r.mapping.Expand()
		} else {
			tr := matrix.NewTransition(r.mapping, c.mapping)
			r.table = stepTable(r.table, tr)
			r.mapping = c.mapping
		}
		r.epoch = c.epoch
		r.out, r.lines = nil, c.lines // the slots follow the new grid's shape
		// Signal every joiner of the new grid (including expansion
		// children) before routing anything under the new mapping.
		r.broadcastCtrl(message{kind: kSignal, epoch: c.epoch, mapping: r.mapping, expand: c.expand, from: r.id})
	}
	return false
}

// ingestBatch processes one run of input tuples: statistics, the
// control task's notes, then routing (Alg. 1). The per-tuple
// bookkeeping of the seed's ingest — two counter increments, a
// controller observation and an atomic routed-message count — is
// hoisted to one update per run; the decision algorithm still sees the
// same cumulative counts, fed in obsChunk slices (controller.observe).
func (r *reshuffler) ingestBatch(items []join.Tuple) {
	if len(items) == 0 {
		return
	}
	var nR, nS int64
	for i := range items {
		if items[i].Rel == matrix.SideR {
			nR++
		} else {
			nS++
		}
	}
	r.consumed += int64(len(items))
	r.ingest.ObserveN(r.id, nR, nS)
	if r.lat != nil {
		for i := range items {
			r.lat.Arrive(items[i].Seq)
		}
	}
	r.noteObserved()
	r.routeBatch(items)
	if r.padDummies {
		// One ratio check per ingested tuple, as on the per-tuple path:
		// each call re-snapshots the estimates and injects at most one
		// dummy.
		for range items {
			r.maybePad()
		}
	}
}

// noteObserved tells the control task that this task ingested a run:
// a tick, without blocking (a pending one already makes the pacer read
// the merged counts, this run's included), and on reshuffler 0 its
// cell through the decider's gate.
func (r *reshuffler) noteObserved() {
	if r.ticks != nil {
		select {
		case r.ticks <- struct{}{}:
		default:
		}
	}
	if r.gate != nil {
		r.gate.pass(r.ingest.Cell(r.id), r.consumed, r.stop)
	}
}

// routeBatch routes a run of tuples. On the grid route each is
// assigned a random partition of its relation and forwarded to every
// joiner of that partition (m machines for an R tuple, n for an S
// tuple) by landing once in the partition's pending envelope.
func (r *reshuffler) routeBatch(items []join.Tuple) {
	if r.out == nil {
		r.resetSlots()
	}
	if r.hashed {
		r.hashBatch(items)
		return
	}
	m := r.mapping
	var routed int64
	for i := range items {
		t := &items[i]
		u := t.U
		derived := false
		if u == 0 {
			if t.Seq != 0 {
				// Deterministic in (seed, seq): a replayed tuple routes to
				// the same partition after a restore, so the joiners that
				// restored it can drop it by sequence number.
				u, derived = join.UMix(r.seed, t.Seq), true
			} else {
				// Reshuffler-generated dummies (Seq 0) keep the rng draw;
				// they never match a predicate, so replay divergence is
				// harmless.
				u = r.rng.Uint64()
			}
		}
		var s int
		if t.Rel == matrix.SideR {
			s = m.RowOf(u)
			routed += int64(m.M)
		} else {
			s = m.N + m.ColOf(u)
			routed += int64(m.N)
		}
		r.buffer(s, t, u, derived)
	}
	r.opm.RoutedMessages.Add(routed)
}

// hashBatch is the hash route's routeBatch: content-sensitive
// partitioning of both relations on the join key, so matching tuples
// always meet at one joiner — and popular keys always collide there.
// The route never migrates, so a tuple's joiner id is its key's
// HashPartition.
func (r *reshuffler) hashBatch(items []join.Tuple) {
	j := r.mapping.J()
	for i := range items {
		t := &items[i]
		s := 2 * HashPartition(t.Key, j)
		if t.Rel != matrix.SideR {
			s++
		}
		r.buffer(s, t, t.U, false)
	}
	r.opm.RoutedMessages.Add(int64(len(items)))
}

// HashPartition is the hash route's partition function: the joiner, of
// j, that key hashes to (a splitmix64 finalizer of the key, join.UMix with a
// zero seed, reduced modulo j).
func HashPartition(key int64, j int) int { return int(join.UMix(0, uint64(key)) % uint64(j)) }

// route routes one tuple (the dummy-injection path; data tuples go
// through routeBatch).
func (r *reshuffler) route(t join.Tuple) {
	r.routeBatch([]join.Tuple{t})
}

// maybePad injects at most one dummy tuple into the smaller relation
// when this task's own cardinality-ratio view exceeds J. Dummies are
// routed and stored like real tuples but never match a predicate,
// physically maintaining 1/J ≤ |R|/|S| ≤ J (§4.2.2). The decision
// reads only this reshuffler's own cell: the global snapshot would
// make every reshuffler race on the same deficit and collectively
// overshoot the pad many-fold, while per-cell ratios ≤ J compose — if
// each task's share satisfies R_i ≤ J·S_i, the summed totals do too.
func (r *reshuffler) maybePad() {
	snap := r.ingest.Cell(r.id)
	j := int64(r.mapping.J())
	var side matrix.Side
	switch {
	case snap.R > j*snap.S && snap.S >= 0:
		side = matrix.SideS
	case snap.S > j*snap.R && snap.R >= 0:
		side = matrix.SideR
	default:
		return
	}
	dummy := join.Tuple{Rel: side, Dummy: true, Size: 1}
	if side == matrix.SideR {
		r.ingest.ObserveN(r.id, 1, 0)
	} else {
		r.ingest.ObserveN(r.id, 0, 1)
	}
	r.noteObserved()
	r.opm.DummyTuples.Add(1)
	r.route(dummy)
}
