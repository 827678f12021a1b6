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
// to. Reshuffler 0 additionally runs the controller (see
// controller.go).
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
	// writes cell id. pacer is the controller's CheckpointEvery pacer
	// channel (nil when the pacer is off), ticked by noteObserved.
	ingest *stats.Sharded
	pacer  chan struct{}

	mapping matrix.Mapping
	table   []int
	epoch   uint32

	// seed feeds the deterministic routing mix (uMix): every reshuffler
	// shares the operator seed, so a tuple's partition depends only on
	// its sequence number — replay after restore routes it identically
	// no matter which reshuffler handles it the second time.
	seed uint64
	// consumed counts the items this task has ingested from its source
	// ring, in ring order: its barrier cut into the replay log. ckptC
	// is the checkpoint coordinator's assembly channel (nil without a
	// backend).
	consumed int64
	ckptC    chan<- ckptEvent

	source  <-chan []join.Tuple
	ctrlCh  chan ctrlMsg
	topo    *topology
	opm     *metrics.Operator
	lat     *metrics.LatencySampler
	ctl     *controller // non-nil on the controller reshuffler
	drainCh chan<- int
	// stop is the operator's cancellation signal; every blocking wait
	// in the task loop selects on it.
	stop <-chan struct{}

	// inBuf coalesces small source envelopes (per-tuple Send wraps
	// each tuple in a singleton) into one ingest run per burst, so the
	// per-envelope amortizations of ingestBatch apply even when the
	// producer never batches.
	inBuf []join.Tuple
	// pend/pendPos is a partially consumed oversized source envelope:
	// a producer may SendBatch far more than sourceBurst tuples at
	// once, and ingesting such an envelope whole would defer control
	// servicing for a producer-chosen span. Instead it is drained in
	// quota-bounded chunks across run-loop iterations, preserving the
	// sourceBurst guarantee.
	pend    []join.Tuple
	pendPos int

	// hint is the operator's shared Reserve-hint cell; non-nil only on
	// the controller reshuffler, which republishes its per-joiner
	// stored-tuple forecast whenever the estimate has grown by a
	// quarter since the last publish (lastHintR/S), so the shared cache
	// line is written logarithmically often, not per burst.
	hint                 *reserveHint
	lastHintR, lastHintS int64

	// padDummies enables the §4.2.2 dummy-tuple padding: when the
	// local cardinality-ratio estimate exceeds J, pad the smaller
	// relation so Lemma 4.1's precondition holds physically.
	padDummies bool
	// hashed selects the hash route (hashBatch) over the grid route.
	hashed bool

	// batchSize is the envelope capacity in tuples; 1 degrades to one
	// envelope per routed tuple. linger bounds the buffered residence time
	// of a tuple while the loop stays busy (<=0: no timer).
	batchSize int
	linger    time.Duration

	// out holds the pending envelope per slot (see slotOf), sized lazily
	// for the current mapping; dirty lists the slots holding tuples and
	// inDirty dedupes it. dests is scratch for a column's joiner ids;
	// byPeer is broadcast's scratch for grouping them by the worker
	// hosting them.
	out []*envelope
	// blocks is, per slot, the open shared block the slot writes each
	// routed tuple's columns into once for all of its in-process joiners
	// (join.BlockWriter); share (Operator.sharesBlocks) enables it.
	blocks  []join.BlockWriter
	share   bool
	dirty   []int
	inDirty []bool
	dests   []int
	byPeer  [][]int
	// indexes is Operator.indexesSlots, asked with migrated — the grid
	// has changed epochs since this task started — whether a slot keeps
	// a slot index.
	indexes  func(epochChanged bool) bool
	migrated bool

	lingerT     *time.Timer
	lingerArmed bool
}

// sourceBurst bounds how many tuples the fast path may pull from the
// source before servicing the control/ack/linger channels again, so a
// firehose source cannot stall epoch commands indefinitely.
const sourceBurst = 64

// maxInBufCap bounds the coalescing buffer capacity a reshuffler
// retains between bursts, so one oversized run does not become a
// permanent per-task memory tax. Stale items beyond the next burst's
// length are not cleared — they pin at most maxInBufCap tuples'
// payloads, and a per-burst memset would cost more than that bound is
// worth.
const maxInBufCap = 4 * sourceBurst

// drainPend ingests up to quota items from the stashed oversized
// envelope, recycling it once fully consumed, and returns the number
// ingested.
func (r *reshuffler) drainPend(quota int) int {
	if r.pend == nil || quota <= 0 {
		return 0
	}
	end := r.pendPos + quota
	if end > len(r.pend) {
		end = len(r.pend)
	}
	r.ingestBatch(r.pend[r.pendPos:end])
	ingested := end - r.pendPos
	r.pendPos = end
	if r.pendPos >= len(r.pend) {
		putItems(r.pend)
		r.pend, r.pendPos = nil, 0
	}
	return ingested
}

// pullBurst drains up to sourceBurst tuples' worth of envelopes from
// the source — small ones coalesced into one ingest run, oversized
// ones ingested in place in quota-bounded chunks — and returns
// dry=true when the burst ended because the source ran out (the only
// state that counts as idle) and eos=true when the source is closed.
// A pending oversized envelope always resumes first, preserving the
// per-reshuffler FIFO order.
func (r *reshuffler) pullBurst() (dry, eos bool) {
	n := r.drainPend(sourceBurst)
	if r.pend != nil {
		return false, false // quota went to the envelope's remainder
	}
	buf := r.inBuf[:0]
	for n < sourceBurst {
		select {
		case env, ok := <-r.source:
			if !ok {
				eos = true
			} else if len(env) >= sourceBurst/2 {
				// A large producer envelope: ship what is already
				// coalesced (FIFO), then ingest the envelope in place —
				// no coalescing copy — up to the remaining quota.
				r.ingestBatch(buf)
				buf = buf[:0]
				n += len(env)
				r.pend, r.pendPos = env, 0
				r.drainPend(sourceBurst - (n - len(env)))
				if r.pend != nil {
					r.inBuf = buf
					return false, false
				}
				continue
			} else {
				n += len(env)
				buf = append(buf, env...)
				putItems(env)
				continue
			}
		default:
			dry = true
		}
		break
	}
	r.ingestBatch(buf)
	if cap(buf) > maxInBufCap {
		buf = nil
	}
	r.inBuf = buf[:0]
	return dry, eos
}

func (r *reshuffler) run() error {
	for {
		// Fast path: a two-case receive is far cheaper than the full
		// five-way select, and on the ingest hot path the source is the
		// only channel that matters. dry records whether the burst ended
		// because the source ran out — only then is the loop idle and
		// allowed to flush partial batches; exhausting the burst quota
		// under a hot source is not idleness.
		dry, eos := r.pullBurst()
		if eos {
			return r.drainLoop()
		}
		// Pump pending control traffic without blocking.
		for pumping := true; pumping; {
			select {
			case c := <-r.ctrlCh:
				if r.applyCtrl(c) {
					return nil
				}
			case ack, ok := <-r.ackChan():
				if ok {
					r.ctl.onAck(ack)
				}
			case d := <-r.drainChan():
				r.ctl.onDrained(d)
			case <-r.pacerChan():
				r.ctl.maybeAutoCkpt()
			case reply := <-r.ckptReqChan():
				r.ctl.onCkptRequest(reply)
			case res := <-r.ckptDoneChan():
				r.ctl.onCkptDone(res)
			case <-r.lingerCh():
				r.lingerArmed = false
				r.flushAll(&r.opm.BatchFlushLinger)
			default:
				pumping = false
			}
		}
		if !dry {
			continue // source still hot: keep the envelopes filling
		}
		// Idle: ship partial batches, then block for the next event.
		r.flushAll(&r.opm.BatchFlushIdle)
		select {
		case c := <-r.ctrlCh:
			if r.applyCtrl(c) {
				return nil
			}
		case env, ok := <-r.source:
			if !ok {
				return r.drainLoop()
			}
			if len(env) >= sourceBurst/2 {
				// Oversized: the next pullBurst drains it in
				// quota-bounded chunks.
				r.pend, r.pendPos = env, 0
			} else {
				r.ingestBatch(env)
				putItems(env)
			}
		case ack, okAck := <-r.ackChan():
			if okAck {
				r.ctl.onAck(ack)
			}
		case d := <-r.drainChan():
			r.ctl.onDrained(d)
		case <-r.pacerChan():
			r.ctl.maybeAutoCkpt()
		case reply := <-r.ckptReqChan():
			r.ctl.onCkptRequest(reply)
		case res := <-r.ckptDoneChan():
			r.ctl.onCkptDone(res)
		case <-r.lingerCh():
			r.lingerArmed = false
			r.flushAll(&r.opm.BatchFlushLinger)
		case <-r.stop:
			return nil
		}
	}
}

// ackChan returns the controller's ack channel, or nil (never ready)
// on plain reshufflers.
func (r *reshuffler) ackChan() <-chan int {
	if r.ctl == nil {
		return nil
	}
	return r.ctl.ackCh
}

func (r *reshuffler) drainChan() <-chan int {
	if r.ctl == nil {
		return nil
	}
	return r.ctl.drainCh
}

// pacerChan returns the CheckpointEvery pacer channel on the controller
// reshuffler, or nil (never ready) on plain reshufflers and when the
// pacer is off.
func (r *reshuffler) pacerChan() <-chan struct{} {
	if r.ctl == nil {
		return nil
	}
	return r.ctl.pacerCh
}

// ckptReqChan returns the controller's checkpoint-request channel, or
// nil (never ready) on plain reshufflers and backend-less operators.
func (r *reshuffler) ckptReqChan() <-chan chan error {
	if r.ctl == nil || r.ctl.ckptC == nil {
		return nil
	}
	return r.ctl.ckptReqCh
}

// ckptDoneChan returns the coordinator's completion channel, guarded
// like ckptReqChan.
func (r *reshuffler) ckptDoneChan() <-chan ckptResult {
	if r.ctl == nil || r.ctl.ckptC == nil {
		return nil
	}
	return r.ctl.ckptDoneCh
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

// buffer appends one routed tuple, with its routing value u, to slot
// s's pending envelope, shipping the envelope when it reaches capacity.
// The append is the tuple's only copy on its way to the joiners; on a
// sharing slot its columns are also written once into the slot's
// shared block, which is where the joiners store it. An envelope's
// window lies in one block, so when the block cannot take the tuple
// (full, or a payload it has no column for) the pending envelope ships
// first.
func (r *reshuffler) buffer(s int, t *join.Tuple, u uint64) {
	b := r.block(s)
	if b != nil && r.out[s] != nil && !b.Fits(t) {
		r.ship(s, &r.opm.BatchFlushFull)
	}
	e := r.out[s]
	if e == nil {
		e = getEnvelope(r.batchSize)
		e.hdr = message{kind: kTuple, from: r.id, epoch: r.epoch}
		r.out[s] = e
	}
	e.tuples = append(e.tuples, *t)
	et := &e.tuples[len(e.tuples)-1]
	et.U = u
	if b != nil {
		b.Append(et)
	}
	e.bytes += t.Bytes()
	if len(e.tuples) >= r.batchSize {
		r.ship(s, &r.opm.BatchFlushFull)
		return
	}
	if !r.inDirty[s] {
		r.inDirty[s] = true
		r.dirty = append(r.dirty, s)
	}
	r.armLinger()
}

// block returns slot s's shared-block writer, or nil when the slot
// writes none.
func (r *reshuffler) block(s int) *join.BlockWriter {
	if r.blocks == nil || !r.blocks[s].Shared() {
		return nil
	}
	return &r.blocks[s]
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
// cause.
func (r *reshuffler) ship(s int, cause *atomic.Int64) {
	e := r.out[s]
	r.out[s] = nil
	if b := r.block(s); b != nil {
		e.win = b.Window()
	}
	cause.Add(1)
	r.opm.BatchesSent.Add(1)
	r.opm.BatchedMessages.Add(int64(len(e.tuples)))
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
// joiner id. A sharing operator also opens each slot's shared-block
// writer for the slot's in-process fan-out, so a block's rows all go to
// one set of joiners: a mapping change starts every slot on a new
// block and, when Operator.indexesSlots says so, a fresh slot index.
// A slot with fewer than two in-process joiners writes none. Called
// with nothing pending.
func (r *reshuffler) resetSlots() {
	n := r.mapping.N + r.mapping.M
	if r.hashed {
		n = 2 * r.mapping.J()
	}
	r.out = make([]*envelope, n)
	r.inDirty = make([]bool, n)
	if !r.share {
		return
	}
	r.blocks = make([]join.BlockWriter, n)
	for s := range r.blocks {
		local := 0
		for _, id := range r.slotDests(s) {
			if !r.topo.isRemote(id) {
				local++
			}
		}
		if local < 2 {
			// One in-process reader stores one copy either way: leave
			// the copy to the joiner rather than the routing loop.
			local = 0
		}
		r.blocks[s].Reset(local, r.indexes(r.migrated))
	}
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

// drainLoop runs after this reshuffler's input is exhausted: it
// reports to the controller and keeps forwarding epoch signals until
// the controller declares the operator finished, at which point it
// EOS-es every joiner. A reshuffler must not exit earlier — joiners
// wait for its signals during any still-running migration.
func (r *reshuffler) drainLoop() error {
	r.flushAll(&r.opm.BatchFlushIdle)
	if r.ctl != nil {
		r.ctl.onSourceDrained()
	} else {
		select {
		case r.drainCh <- r.id:
		case <-r.stop:
			return nil
		}
	}
	for {
		select {
		case c := <-r.ctrlCh:
			if r.applyCtrl(c) {
				return nil
			}
		case ack, ok := <-r.ackChan():
			if ok {
				r.ctl.onAck(ack)
			}
		case d := <-r.drainChan():
			r.ctl.onDrained(d)
		case <-r.pacerChan():
			r.ctl.maybeAutoCkpt()
		case reply := <-r.ckptReqChan():
			r.ctl.onCkptRequest(reply)
		case res := <-r.ckptDoneChan():
			r.ctl.onCkptDone(res)
		case <-r.stop:
			return nil
		}
	}
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
		// items this task consumed before the barrier — to the
		// coordinator. The marker's checkpoint id rides in tuple.Seq and
		// the force-full flag in epoch.
		ep := uint32(0)
		if c.full {
			ep = 1
		}
		r.broadcastCtrl(message{kind: kCkpt, from: r.id, epoch: ep, tuple: join.Tuple{Seq: c.ckpt}})
		if r.ckptC != nil {
			select {
			case r.ckptC <- ckptEvent{kind: evCut, ckpt: c.ckpt, idx: r.id, cut: r.consumed}:
			case <-r.stop:
			}
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
		r.out, r.blocks = nil, nil // the slots follow the new grid's shape
		r.migrated = true
		// Signal every joiner of the new grid (including expansion
		// children) before routing anything under the new mapping.
		r.broadcastCtrl(message{kind: kSignal, epoch: c.epoch, mapping: r.mapping, expand: c.expand, from: r.id})
	}
	return false
}

// ingestBatch processes one run of input tuples: statistics,
// controller decision, then routing (Alg. 1). The per-tuple
// bookkeeping of the seed's ingest — two counter increments, a
// controller observation with a decision check, and an atomic
// routed-message count — is hoisted to one update per run; the
// decision algorithm sees the same cumulative counts, it just
// evaluates its checkpoint condition once per run instead of once per
// tuple, which moves a migration decision by at most a burst.
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
	if r.hint != nil {
		r.publishHint()
	}
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

// noteObserved hands a fresh ingest observation to the controller: the
// controller reshuffler evaluates inline; every other reshuffler ticks
// the CheckpointEvery pacer, when there is one, without blocking (a
// pending tick already guarantees a future check that will see this
// observation — ObserveN happened before the send).
func (r *reshuffler) noteObserved() {
	if r.ctl != nil {
		r.ctl.onObserved()
		return
	}
	if r.pacer != nil {
		select {
		case r.pacer <- struct{}{}:
		default:
		}
	}
}

// publishHint refreshes the operator's shared Reserve-hint cell with
// the per-joiner stored-tuple forecast under the current mapping. Only
// significant growth (a quarter over the last published value)
// republishes, keeping writes to the joiner-polled cache line rare.
func (r *reshuffler) publishHint() {
	perR, perS := r.ingest.Snapshot().PerJoiner(r.mapping.N, r.mapping.M)
	if perR > r.lastHintR+r.lastHintR/4 {
		r.lastHintR = perR
		r.hint.perR.Store(perR)
	}
	if perS > r.lastHintS+r.lastHintS/4 {
		r.lastHintS = perS
		r.hint.perS.Store(perS)
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
		if u == 0 {
			if t.Seq != 0 {
				// Deterministic in (seed, seq): a replayed tuple routes to
				// the same partition after a restore, so the joiners that
				// restored it can drop it by sequence number.
				u = uMix(r.seed, t.Seq)
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
		r.buffer(s, t, u)
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
		r.buffer(s, t, t.U)
	}
	r.opm.RoutedMessages.Add(int64(len(items)))
}

// HashPartition is the hash route's partition function: the joiner, of
// j, that key hashes to (a splitmix64 finalizer of the key, uMix with a
// zero seed, reduced modulo j).
func HashPartition(key int64, j int) int { return int(uMix(0, uint64(key)) % uint64(j)) }

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
