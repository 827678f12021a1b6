package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/join"
	"repro/internal/metrics"
)

// The emit plane: the egress mirror of the sharded ingest front end.
//
// Without it, every joiner delivers its result pairs inline — J
// goroutines funneling through whatever synchronization the user's sink
// carries, with the joiner's probe loop stalled for the duration of the
// sink call. With Config.EmitWorkers > 0, each joiner instead
// accumulates matches in a pooled pair buffer and hands the full buffer
// to a dedicated emit worker by pointer: the joiner swaps in a fresh
// buffer from the pool and returns to probing, the worker runs latency
// sampling and the user sink off the probe path, and the consumed
// buffer recycles through the pool. Pairs are materialized by the
// store's batch collect straight into the buffer that ships (arena
// column reads land in the handoff buffer itself), so the plane adds no
// copy — only one bounded-channel operation per flushed run.
//
// Affinity mirrors the lane->home-reshuffler mapping: joiner id i homes
// on worker i mod EmitWorkers, so one worker drains a stable subset of
// joiners and their buffers stay warm in one cache. Under pressure —
// the home queue full — a buffer spills to the first worker with room
// (metrics.EmitSpills), exactly like LaneSpills on ingest. Sharded
// sinks (Config.EmitShard) never spill: their contract serializes
// deliveries within a shard, which holds precisely because each shard's
// buffers flow through one worker queue in order.

// maxPairPoolCap bounds the pair-buffer capacity the pool retains, the
// same bound joiners place on their inline buffer (maxPairBufCap): a
// single ultra-high-fanout run may balloon a buffer, and recycling it
// would keep megabytes pinned per steady-state buffer.
const maxPairPoolCap = maxPairBufCap

// pairPool recycles emit-plane pair buffers between joiners
// (producers) and emit workers (consumers), the third instance of the
// batch-plane pooling discipline (batchPool, itemPool).
var pairPool slicePool[join.Pair]

// getPairs returns an empty pair buffer with at least capHint capacity
// (clamped to the pool's retention bound — a larger run just grows it).
func getPairs(capHint int) []join.Pair {
	return pairPool.get(min(capHint, maxPairPoolCap))
}

// putPairs recycles a consumed pair buffer, clearing it first so
// recycled buffers do not pin tuple payloads.
func putPairs(b []join.Pair) {
	if cap(b) > maxPairPoolCap {
		return
	}
	clear(b)
	pairPool.put(b)
}

// emitJob is one handed-off pair buffer: the emitting shard and the
// pairs, exchanged by pointer (the slice header), never copied.
type emitJob struct {
	shard int
	ps    []join.Pair
}

// emitQueueCap is each worker's job-queue depth in buffers. A buffer
// carries a whole probed run, so even a shallow queue represents a lot
// of buffered output; the bound is what creates emit backpressure on
// joiners when the sink cannot keep up.
const emitQueueCap = 128

// emitPlane owns the emit workers and the drain protocol.
type emitPlane struct {
	workers []chan emitJob
	// sharded pins buffers to their home worker (per-shard
	// serialization); unsharded sinks may spill under pressure.
	sharded bool
	shardFn join.ShardedEmitBatch
	batchFn join.EmitBatch
	emitFn  join.Emit
	lat     *metrics.LatencySampler
	met     *metrics.Operator
	stop    <-chan struct{}

	// live counts running joiner tasks (initial and elastically
	// spawned). The last exit closes drained; workers then consume their
	// remaining backlog and stop, which is what lets Finish's
	// runner.Wait return only after every pair has been delivered.
	live      atomic.Int64
	drained   chan struct{}
	closeOnce sync.Once
}

func newEmitPlane(cfg *Config, met *metrics.Operator, stop <-chan struct{}) *emitPlane {
	pl := &emitPlane{
		workers: make([]chan emitJob, cfg.EmitWorkers),
		sharded: cfg.EmitShard != nil,
		shardFn: cfg.EmitShard,
		batchFn: cfg.EmitBatch,
		emitFn:  cfg.Emit,
		lat:     cfg.Latency,
		met:     met,
		stop:    stop,
		drained: make(chan struct{}),
	}
	for i := range pl.workers {
		pl.workers[i] = make(chan emitJob, emitQueueCap)
	}
	return pl
}

// joinerUp registers a joiner task about to start; joinerDone retires
// it. The operator pre-registers every initial joiner before launching
// any (and each elastic child before its Go), so live can only reach
// zero once no further joiner — hence no further producer — exists.
func (pl *emitPlane) joinerUp(n int) { pl.live.Add(int64(n)) }

func (pl *emitPlane) joinerDone() {
	if pl.live.Add(-1) == 0 {
		pl.closeOnce.Do(func() { close(pl.drained) })
	}
}

// enqueue hands a filled pair buffer to the plane; the plane owns the
// buffer from here (it is recycled after delivery). home is the
// joiner's home worker. An unsharded sink spills to the first
// worker with room when home is backlogged (EmitSpills); a sharded
// sink blocks on home — same-shard FIFO is part of its contract. A
// blocking hand-off aborts (dropping the buffer) only when the
// operator is stopping, where exactness no longer applies.
func (pl *emitPlane) enqueue(home, shard int, ps []join.Pair) {
	job := emitJob{shard: shard, ps: ps}
	select {
	case pl.workers[home] <- job:
		return
	default:
	}
	if !pl.sharded {
		n := len(pl.workers)
		for k := 1; k < n; k++ {
			d := home + k
			if d >= n {
				d -= n
			}
			select {
			case pl.workers[d] <- job:
				pl.met.EmitSpills.Add(1)
				return
			default:
			}
		}
	}
	select {
	case pl.workers[home] <- job:
	case <-pl.stop:
		putPairs(ps)
	}
}

// runWorker is one emit worker task: drain jobs until every joiner has
// exited and the queue is empty (or the operator stops). Workers run
// under the operator's runner, so a panic in the user's sink cancels
// the whole task set instead of deadlocking joiners against a dead
// worker's queue.
func (pl *emitPlane) runWorker(i int) error {
	jobs := pl.workers[i]
	for {
		select {
		case job := <-jobs:
			pl.deliver(job)
		case <-pl.drained:
			// No producer remains: whatever is queued now is all there
			// will ever be.
			for {
				select {
				case job := <-jobs:
					pl.deliver(job)
				default:
					return nil
				}
			}
		case <-pl.stop:
			return nil
		}
	}
}

// deliver runs the off-path half of the emit: latency sampling and the
// user sink (per-joiner OutputPairs accounting stays with the joiner,
// on its own counter block, at hand-off time). The consumed buffer
// recycles through the pool.
func (pl *emitPlane) deliver(job emitJob) {
	ps := job.ps
	if pl.lat != nil {
		for i := range ps {
			newer := ps[i].R.Seq
			if ps[i].S.Seq > newer {
				newer = ps[i].S.Seq
			}
			pl.lat.Emit(newer)
		}
	}
	switch {
	case pl.shardFn != nil:
		pl.shardFn(job.shard, ps)
	case pl.batchFn != nil:
		pl.batchFn(ps)
	case pl.emitFn != nil:
		for i := range ps {
			pl.emitFn(ps[i])
		}
	}
	putPairs(ps)
}
