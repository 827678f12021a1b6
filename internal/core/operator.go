package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataflow"
	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/storage"
)

// topology holds the communication ports of every joiner. It grows
// under elastic expansion; readers take a snapshot pointer, so routing
// is lock-free on the hot path.
type topology struct {
	ports atomic.Pointer[[]*joinerPorts]
	met   *metrics.Operator
	// remote, when non-nil, maps joiner id -> the link peer hosting it
	// (nil entry = in this process); pushData/pushMigBatch consult it
	// so senders are network-transparent. It is installed before Start
	// and never grows — distributed mode rejects elastic expansion —
	// and stays nil in single-process operators, where the only cost is
	// one nil check per push.
	remote []*remotePeer
	// stop is the operator's cancellation signal (the runner's Done
	// channel): bounded-link sends select on it so a reshuffler can
	// never block forever against a stopped joiner's inbox.
	stop <-chan struct{}
}

// isRemote reports whether joiner id lives in another process.
func (tp *topology) isRemote(id int) bool {
	return tp.remote != nil && id < len(tp.remote) && tp.remote[id] != nil
}

type joinerPorts struct {
	// dataIn carries batch envelopes ([]message) rather than single
	// messages: one channel operation moves up to BatchSize tuples.
	dataIn chan []message
	// migIn carries batch envelopes too: migrated state (kMigTuple)
	// ships in per-destination envelopes of up to MigBatchSize
	// messages, while the framing markers (kMigBegin, kMigDone) ride
	// alone in their own envelopes.
	migIn     *dataflow.Queue[[]message]
	migNotify chan struct{}
}

// newJoinerPorts sizes the data inbox in batches so the buffered
// message volume stays at dataCap regardless of batch size.
func newJoinerPorts(dataCap, batchSize int) *joinerPorts {
	capBatches := dataCap / batchSize
	if capBatches < 1 {
		capBatches = 1
	}
	return &joinerPorts{
		dataIn:    make(chan []message, capBatches),
		migIn:     dataflow.NewQueue[[]message](),
		migNotify: make(chan struct{}, 1),
	}
}

func (tp *topology) add(ports []*joinerPorts) {
	cur := tp.ports.Load()
	var next []*joinerPorts
	if cur != nil {
		next = append(next, *cur...)
	}
	next = append(next, ports...)
	tp.ports.Store(&next)
}

// pushData delivers a batch on a joiner's (bounded) data link,
// providing backpressure to reshufflers. The receiver owns the slice
// and recycles it via putBatch after processing. When the operator is
// cancelled mid-send the batch is dropped — the topology is unwinding
// and exactness no longer applies.
func (tp *topology) pushData(id int, b []message) {
	if tp.isRemote(id) {
		// Blocking in the link write: the TCP window is the remote
		// analogue of the bounded inbox's backpressure.
		tp.remote[id].sendData(id, b)
		return
	}
	select {
	case (*tp.ports.Load())[id].dataIn <- b:
	case <-tp.stop:
		putBatch(b)
	}
}

// pushMig delivers one protocol message (kMigBegin, kMigDone) alone in
// its own envelope on a joiner's unbounded migration link, preserving
// the framing around batched kMigTuple traffic.
func (tp *topology) pushMig(id int, m message) {
	tp.pushMigBatch(id, append(getBatch(1), m))
}

// pushMigBatch delivers a batch envelope on a joiner's unbounded
// migration link. Sends never block, which is what makes the pairwise
// state exchange deadlock-free; the receiver owns the slice and
// recycles it after processing.
func (tp *topology) pushMigBatch(id int, b []message) {
	tp.met.MigBatchesSent.Add(1)
	tp.met.MigBatchedMessages.Add(int64(len(b)))
	if tp.isRemote(id) {
		// Queued, never blocking: same contract as the in-process
		// unbounded migration link.
		tp.remote[id].queueMig(id, b)
		return
	}
	p := (*tp.ports.Load())[id]
	p.migIn.Push(b)
	select {
	case p.migNotify <- struct{}{}:
	default:
	}
}

// reserveHint is the controller's published per-joiner stored-tuple
// forecast, one cell per side. The controller reshuffler derives it
// from the exact sharded cardinality counts (stats.Snapshot.PerJoiner)
// and republishes on significant growth; joiners poll it once per
// processed envelope and presize their store (hash directory and
// columnar arena) ahead of the ingest that would otherwise grow them
// incrementally. It is a hint in both directions: a zero or stale
// value only means growth proceeds as usual.
type reserveHint struct {
	perR, perS atomic.Int64
}

// Config configures an Operator.
type Config struct {
	// J is the number of joiners; it must be a power of two (use
	// groups.go for arbitrary machine counts).
	J int
	// Pred is the join predicate.
	Pred join.Predicate
	// Initial is the starting mapping; zero value means the square
	// (√J,√J) mapping, the paper's initialization for Dynamic and the
	// fixed mapping of StaticMid.
	Initial matrix.Mapping
	// Adaptive enables the controller's migration decisions; false
	// yields a static operator (the StaticMid/StaticOpt baselines).
	Adaptive bool
	// NumReshufflers is the number of routing tasks. It defaults to
	// min(J, GOMAXPROCS): J is the paper's grid size (one reshuffler per
	// machine in §3.2), but here a reshuffler is a goroutine, and more of
	// them than cores only splits every SendBatch into smaller envelopes,
	// each a separate hand-off and wake-up, so joiner batches ship
	// partly full. Routing does not depend on the count. The grouped
	// operator uses 1 to obtain a total delivery order per group; a
	// worker takes the coordinator's count from its hello, a restore
	// the snapshot's.
	NumReshufflers int
	// SourceLanes shards the ingest front end for concurrent feeders:
	// with n > 1 lanes, each Send/SendBatch call acquires a lane holding
	// a coarse grant of sequence numbers (refilled from the global
	// counter once per seqGrant tuples) and delivers whole envelopes to
	// the lane's home reshuffler ring, spilling to neighbors only under
	// pressure — so N feeder goroutines stop contending on one atomic
	// and one deal path. Sequence numbers stay globally unique and
	// totally ordered (all the exactness invariant needs) but are no
	// longer dense in arrival order, and routing is no longer the
	// per-seq pseudo-random deal, so runs are not byte-reproducible
	// across feeder interleavings. 0 or 1 keeps the legacy deterministic
	// single-lane front end.
	SourceLanes int
	// Epsilon is Alg. 2's ε; 0 means 1 (the 1.25-competitive setting).
	Epsilon float64
	// Warmup is the minimum (estimated) input before the first
	// adaptation; the paper uses 500K tuples (§5.4).
	Warmup int64
	// MaxTuplesPerJoiner is the elasticity threshold M; 0 disables
	// elastic expansion.
	MaxTuplesPerJoiner int64
	// MaxJoiners caps elastic growth: no expansion is taken that would
	// push the joiner count above it. 0 means unlimited.
	MaxJoiners int
	// PadDummies enables physical dummy-tuple padding (§4.2.2).
	PadDummies bool
	// Storage configures the per-joiner store (memory cap, spill dir).
	Storage storage.Config
	// Backend, when non-nil, enables barrier checkpointing: Checkpoint
	// (and the CheckpointEvery pacer) snapshots the whole operator —
	// joiner stores, controller mapping/epoch, ingest cursors — through
	// it, and RestoreOperator rebuilds from its latest committed
	// snapshot. nil disables checkpointing (Checkpoint returns
	// ErrNoBackend) and removes all of its ingest-path cost.
	Backend storage.Backend
	// CheckpointEvery, with a Backend, triggers an automatic checkpoint
	// after every n ingested tuples (measured at the controller's exact
	// sharded counter, so the trigger composes with source lanes).
	// 0 leaves checkpointing purely manual.
	CheckpointEvery int64
	// CheckpointKeep is how many committed checkpoint generations the
	// backend retains for last-good fallback restore. The replay log is
	// trimmed only to the oldest retained generation's cut, so every
	// retained generation stays replayable after a fallback. 0 means
	// storage.DefaultKeep; values below 1 clamp to 1.
	CheckpointKeep int
	// CheckpointCompactEvery bounds the incremental-snapshot chain:
	// once the committed delta chain reaches this length the next
	// checkpoint is forced full, folding the chain back to a single
	// base. 0 means DefaultCheckpointCompactEvery; 1 disables
	// incremental checkpoints entirely (every snapshot full).
	CheckpointCompactEvery int
	// CheckpointPolicy selects the reaction to a checkpoint commit that
	// fails even after the backend's own retries: CkptDegrade (the
	// default) keeps joining and retries at the next boundary,
	// CkptFailStop cancels the operator.
	CheckpointPolicy CheckpointPolicy
	// Emit receives join results; it must not block. nil counts
	// results internally.
	Emit join.Emit
	// EmitBatch, if non-nil, receives join results a run at a time and
	// takes precedence over Emit: every result (including single pairs
	// produced on the migration paths) is delivered through it. The
	// slice is only valid for the duration of the call — the operator
	// reuses the backing buffer.
	EmitBatch join.EmitBatch
	// EmitShard, if non-nil, takes precedence over EmitBatch and Emit:
	// results arrive tagged with the emitting joiner's shard id
	// (joiner id + EmitShardBase). Calls within one shard are
	// serialized; different shards run concurrently with no cross-shard
	// order — the sink form that lets J joiners emit without one shared
	// mutex.
	EmitShard join.ShardedEmitBatch
	// EmitShardBase offsets this operator's shard ids; the grouped
	// decomposition gives each power-of-two group a disjoint shard
	// range.
	EmitShardBase int
	// EmitWorkers > 0 moves sink invocation off the joiner goroutines
	// onto that many dedicated emit workers: joiners hand filled pair
	// buffers over by pointer (joiner id mod EmitWorkers picks the home
	// worker, mirroring the lane->home-reshuffler affinity; unsharded
	// sinks spill under pressure, see metrics.EmitSpills) and return to
	// probing. 0 keeps the legacy inline emission on the joiner
	// goroutine.
	EmitWorkers int
	// Latency, if non-nil, samples tuple latencies.
	Latency *metrics.LatencySampler
	// Seed makes the random routing reproducible.
	Seed int64
	// DataQueueCap is the per-joiner data inbox capacity in messages
	// (default 1024); the inbox channel is sized in batches so buffered
	// volume is independent of BatchSize.
	DataQueueCap int
	// BatchSize is the capacity of the reshuffler->joiner batch
	// envelope in messages. Batches flush when full, before every
	// protocol barrier (epoch signal, EOS), when the reshuffler goes
	// idle, and when BatchLinger expires. 0 means DefaultBatchSize;
	// 1 degenerates to the unbatched per-message plane.
	BatchSize int
	// BatchLinger bounds how long a routed tuple may wait in a partial
	// batch while the reshuffler stays busy, keeping tail latency
	// honest under trickle traffic. 0 means DefaultBatchLinger;
	// negative disables the timer (idle and barrier flushes remain).
	BatchLinger time.Duration
	// Workers lists worker process addresses (cmd/joinworker) hosting
	// remote joiners: this process becomes the coordinator — it runs
	// the reshufflers, the controller, and the user sink — and reaches
	// each worker's joiners over one transport link. Distributed mode
	// requires a serializable predicate (equi or band, no residual) and
	// excludes checkpointing (Backend) and elastic expansion
	// (MaxTuplesPerJoiner); empty keeps everything in-process.
	Workers []string
	// Placement maps joiner id -> index into Workers, with -1 keeping
	// that joiner in the coordinator process. nil spreads joiners over
	// the workers in contiguous blocks with none kept locally.
	Placement []int
	// hosted, on a worker process, masks which joiner ids this
	// Operator actually runs (set from the coordinator's hello by
	// ServeWorker; nil everywhere else).
	hosted []bool
	// MigBatchSize is the migration-plane envelope capacity in
	// messages: during a migration each joiner accumulates outgoing
	// relocated-state tuples (kMigTuple) into per-destination
	// envelopes that flush when full, after the initial state
	// snapshot, at the end of every processed data envelope, and
	// always before the kMigDone marker — so the kMigBegin/kMigDone
	// framing and per-link FIFO order are batch-size invariant.
	// 0 means BatchSize; 1 degenerates to the per-message migration
	// plane.
	MigBatchSize int
}

// CheckpointPolicy selects how the operator reacts when a checkpoint
// commit fails after the backend's retries are exhausted.
type CheckpointPolicy uint8

const (
	// CkptDegrade (the default) trades checkpoint freshness for
	// availability: a failed commit logs, bumps CheckpointFailures,
	// leaves the replay log untrimmed (the previous checkpoint stays
	// fully recoverable — no durability is silently lost), and the
	// operator keeps joining; the next boundary retries.
	CkptDegrade CheckpointPolicy = iota
	// CkptFailStop cancels the operator on the first failed commit;
	// the wrapped backend error surfaces from Finish/Wait.
	CkptFailStop
)

// DefaultCheckpointCompactEvery is the delta-chain length bound used
// when Config.CheckpointCompactEvery is zero.
const DefaultCheckpointCompactEvery = 8

// DefaultBatchSize is the batch envelope capacity used when
// Config.BatchSize is zero.
const DefaultBatchSize = 32

// DefaultBatchLinger is the partial-batch flush budget used when
// Config.BatchLinger is zero.
const DefaultBatchLinger = 200 * time.Microsecond

func (c *Config) fill() {
	if c.J <= 0 || c.J&(c.J-1) != 0 {
		panic(fmt.Sprintf("core: J=%d is not a positive power of two", c.J))
	}
	if c.Initial == (matrix.Mapping{}) {
		c.Initial = matrix.Square(c.J)
	}
	if !c.Initial.Valid() || c.Initial.J() != c.J {
		panic(fmt.Sprintf("core: initial mapping %v invalid for J=%d", c.Initial, c.J))
	}
	if c.NumReshufflers <= 0 {
		c.NumReshufflers = min(c.J, runtime.GOMAXPROCS(0))
	}
	if c.SourceLanes <= 0 {
		c.SourceLanes = 1
	}
	if c.DataQueueCap <= 0 {
		c.DataQueueCap = 1024
	}
	if c.BatchSize <= 0 {
		c.BatchSize = DefaultBatchSize
	}
	if c.BatchLinger == 0 {
		c.BatchLinger = DefaultBatchLinger
	}
	if c.MigBatchSize <= 0 {
		c.MigBatchSize = c.BatchSize
	}
	if c.EmitWorkers < 0 {
		c.EmitWorkers = 0
	}
	if c.CheckpointKeep == 0 {
		c.CheckpointKeep = storage.DefaultKeep
	}
	if c.CheckpointKeep < 1 {
		c.CheckpointKeep = 1
	}
	if c.CheckpointCompactEvery == 0 {
		c.CheckpointCompactEvery = DefaultCheckpointCompactEvery
	}
	if c.CheckpointCompactEvery < 1 {
		c.CheckpointCompactEvery = 1
	}
	if len(c.Workers) > 0 {
		if c.Backend != nil {
			panic("core: checkpointing requires a single-process operator (no Workers)")
		}
		if c.MaxTuplesPerJoiner > 0 {
			panic("core: elastic expansion requires a single-process operator (no Workers)")
		}
		if c.Pred.Kind == join.Theta || c.Pred.Residual != nil {
			panic("core: remote workers require a serializable predicate (equi or band join, no residual)")
		}
		if c.Placement != nil {
			if len(c.Placement) != c.J {
				panic(fmt.Sprintf("core: placement has %d entries for J=%d", len(c.Placement), c.J))
			}
			for id, w := range c.Placement {
				if w < -1 || w >= len(c.Workers) {
					panic(fmt.Sprintf("core: joiner %d placed on worker %d of %d", id, w, len(c.Workers)))
				}
			}
		}
	}
}

// ErrFinished is returned by Send/SendBatch after Finish has closed
// the operator's input.
var ErrFinished = errors.New("core: operator is finished")

// Operator is the adaptive (or, with Adaptive=false, static) parallel
// online theta-join operator. Feed it interleaved R and S tuples with
// Send or SendBatch; results flow to Config.Emit (or Config.EmitBatch)
// as they are discovered; Finish drains and stops all tasks.
type Operator struct {
	cfg    Config
	topo   *topology
	met    *metrics.Operator
	runner dataflow.Runner

	// sources holds one input ring per reshuffler, carrying pooled
	// []sourceItem envelopes: Send deals tuples pseudo-randomly,
	// modeling the paper's random tuple-to-reshuffler routing while
	// guaranteeing every reshuffler (in particular the controller) sees
	// an exact 1/numReshufflers sample at stream pace; SendBatch deals
	// whole envelopes split per destination.
	sources []chan []sourceItem
	ctl     *controller
	hint    reserveHint
	// plane is the emit plane (nil when EmitWorkers == 0): dedicated
	// workers that run latency sampling and the user sink off the
	// joiner goroutines, fed pooled pair buffers by pointer.
	plane *emitPlane
	// ingest is the exact sharded cardinality counter: one cell per
	// reshuffler, merged on snapshot. It replaces the per-reshuffler
	// sampled Estimator — source-lane affinity breaks the uniform-deal
	// assumption the 1/N sample scaling rested on, so the controller
	// consumes exact global deltas instead.
	ingest *stats.Sharded

	// lanes is the sharded ingest front end (nil when SourceLanes <= 1):
	// each lane owns a seq-grant cursor and a home reshuffler ring.
	// Feeders acquire lanes through lanePool, whose per-P caching makes
	// a goroutine sticky to the lane (and hence the ring) it last used;
	// laneRR hands lanes out round-robin when the pool comes up empty
	// (startup, or after a GC purge). The pool may transiently hold the
	// same lane twice — every use is under the lane's mutex, so a
	// duplicate only costs a moment of sharing, never a lost grant.
	lanes    []*sourceLane
	lanePool sync.Pool
	laneRR   atomic.Uint32

	// replay is the ingest-edge replay log (nil without a Backend):
	// every envelope entering a source ring is also appended to the
	// ring's log, under a per-ring mutex spanning the ring send so log
	// order equals delivery order. Checkpoints record each ring's
	// consumed cut and trim the log to it once the snapshot is durable.
	replay *ReplayLog
	// ckptC fans checkpoint events (reshuffler cuts, joiner snapshots)
	// into the coordinator goroutine; ckptQuit/ckptWG bound its
	// lifetime — it must outlive runner.Wait, because it is the party
	// that recovers a mid-snapshot crash into a runner cancellation.
	ckptC    chan ckptEvent
	ckptQuit chan struct{}
	ckptWG   sync.WaitGroup
	// ckptChain and cutHist are coordinator-goroutine-private
	// incremental-checkpoint state: the committed delta chain (base
	// first) the next snapshot's dependencies come from, and the
	// retained generations' replay cuts (oldest first, capped at
	// CheckpointKeep) bounding how far the replay log may be trimmed.
	ckptChain []uint64
	cutHist   []ckptCut

	// stop is the runner's Done channel: closed on context
	// cancellation or on the first task failure. Every blocking
	// channel operation in the operator selects on it.
	stop <-chan struct{}
	// finishedCh closes when Finish completes, releasing the context
	// watcher goroutine of StartContext.
	finishedCh chan struct{}

	// place is the joiner-id -> worker-index table (-1 = this process;
	// nil without Workers); peers the per-worker link endpoints, dialed
	// by StartContext.
	place []int
	peers []*remotePeer

	mu      sync.Mutex
	joiners []*joiner

	seq atomic.Uint64
	// lifeMu guards the lifecycle flags against concurrent
	// Send/SendBatch vs Start/Finish: senders hold the read side while
	// checking closed and pushing into a source ring, Finish takes the
	// write side before closing the rings, so a send can never race a
	// close into a panic — it either lands before the close or observes
	// closed and returns ErrFinished.
	lifeMu  sync.RWMutex
	started bool
	closed  bool
}

// seqGrant is the number of sequence numbers a lane takes from the
// global counter per refill: large enough that the shared atomic is
// touched once per ~thousand tuples per lane, small enough that an
// abandoned grant leaves a negligible hole (holes are harmless — the
// exactness invariant needs only uniqueness and a total order, and the
// latency sampler keys by seq value, not density).
const seqGrant = 1024

// sourceLane is one shard of the ingest front end: a seq-grant cursor
// and a home reshuffler ring. The mutex serializes the (rare) case of
// two feeders drawing the same lane; the hot path is an uncontended
// lock plus a lane-local cursor increment.
//
// The struct is padded past a cache line. Unpadded it is ~48 bytes, so
// the allocator's size class can place two lanes' hot cursors on one
// 64-byte line — and with one feeder core hammering each lane's mutex
// and seq cursor, that false sharing is exactly the cross-core line
// ping the lane sharding exists to avoid (it showed up as the j=4
// procs=4 regression in the PR 6 scaling rows). The pad keeps every
// lane's written fields on lines no other lane writes.
type sourceLane struct {
	mu   sync.Mutex
	next uint64 // next unassigned seq of the current grant
	end  uint64 // one past the grant's last seq
	home int    // home reshuffler ring
	// spill remembers the ring of this lane's last successful pressure
	// spill (home when none yet). Retrying it first keeps a lane under
	// sustained pressure feeding the ring that had room instead of
	// re-scanning from home+1 — where every pressured lane would
	// otherwise collide on the same neighbor.
	spill atomic.Uint32
	_     [64]byte
}

// nextSeq returns the lane's next sequence number, refilling the grant
// from the global counter when exhausted. Caller holds ln.mu.
func (ln *sourceLane) nextSeq(global *atomic.Uint64) uint64 {
	if ln.next >= ln.end {
		end := global.Add(seqGrant)
		ln.next, ln.end = end-seqGrant+1, end+1
	}
	s := ln.next
	ln.next++
	return s
}

// NewOperator builds an operator; call Start before Send.
func NewOperator(cfg Config) *Operator {
	cfg.fill()
	op := &Operator{
		cfg:        cfg,
		topo:       &topology{},
		met:        metrics.NewOperator(cfg.J),
		finishedCh: make(chan struct{}),
	}
	op.stop = op.runner.Done()
	op.topo.met = op.met
	op.topo.stop = op.stop
	if op.cfg.EmitWorkers > 0 {
		op.plane = newEmitPlane(&op.cfg, op.met, op.stop)
	}
	op.sources = make([]chan []sourceItem, cfg.NumReshufflers)
	for i := range op.sources {
		// Sized in envelopes; a Send wraps one tuple per envelope, so
		// per-tuple producers see the same buffered depth as before.
		op.sources[i] = make(chan []sourceItem, 512)
	}
	op.ingest = stats.NewSharded(cfg.NumReshufflers)
	if cfg.SourceLanes > 1 {
		op.lanes = make([]*sourceLane, cfg.SourceLanes)
		for i := range op.lanes {
			op.lanes[i] = &sourceLane{home: i % cfg.NumReshufflers}
		}
		op.lanePool.New = func() any {
			i := op.laneRR.Add(1) - 1
			return op.lanes[int(i)%len(op.lanes)]
		}
	}
	dec := NewDecider(DeciderConfig{
		J:            cfg.J,
		Initial:      cfg.Initial,
		Epsilon:      cfg.Epsilon,
		Warmup:       cfg.Warmup,
		MaxPerJoiner: cfg.MaxTuplesPerJoiner,
	})
	op.ctl = newController(dec, cfg.Adaptive, cfg.J, op)
	op.ctl.ingest = op.ingest
	if cfg.Backend != nil {
		op.replay = newReplayLog(cfg.NumReshufflers)
		op.ckptC = make(chan ckptEvent, 64)
		op.ckptQuit = make(chan struct{})
		op.ctl.ckptC = op.ckptC
		if ks, ok := cfg.Backend.(storage.KeepSetter); ok {
			ks.SetKeep(cfg.CheckpointKeep)
		}
	}
	if op.lanes == nil {
		// Legacy deal front end: the controller's own cell is an
		// unbiased in-order 1/N sample; feed it scaled, as the seed did.
		op.ctl.scale = int64(cfg.NumReshufflers)
	}

	if len(cfg.Workers) > 0 {
		op.place = placementFor(&op.cfg)
	}
	ports := make([]*joinerPorts, cfg.J)
	for i := range ports {
		ports[i] = newJoinerPorts(cfg.DataQueueCap, cfg.BatchSize)
	}
	op.topo.add(ports)
	for id := 0; id < cfg.J; id++ {
		if !op.hostsJoiner(id) {
			continue
		}
		op.joiners = append(op.joiners, op.newJoiner(id, cfg.Initial.CellOf(id), cfg.Initial, 0, nil))
	}
	return op
}

// hostsJoiner reports whether joiner id runs in this process: all of
// them in single-process mode, the locally placed subset on a
// coordinator, the hello-masked subset on a worker.
func (op *Operator) hostsJoiner(id int) bool {
	if op.cfg.hosted != nil {
		return op.cfg.hosted[id]
	}
	return op.place == nil || op.place[id] < 0
}

// newJoiner constructs a joiner task; birth, when non-nil, pre-arms an
// expansion child's migration state.
func (op *Operator) newJoiner(id int, cell matrix.Cell, mapping matrix.Mapping, epoch uint32, birth *migState) *joiner {
	op.met.Grow(id + 1)
	table := append([]int(nil), op.ctl.table...)
	w := &joiner{
		id:       id,
		pred:     op.cfg.Pred,
		numRe:    op.cfg.NumReshufflers,
		cell:     cell,
		mapping:  mapping,
		epoch:    epoch,
		table:    table,
		state:    storage.NewStore(op.cfg.Pred, op.cfg.Storage),
		topo:     op.topo,
		ackCh:    op.ctl.ackCh,
		met:      op.met.JoinerStats(id),
		stCfg:    op.cfg.Storage,
		migBatch: op.cfg.MigBatchSize,
		mig:      birth,
		hint:     &op.hint,
		ckptC:    op.ckptC,
		stop:     op.stop,
	}
	w.shard = id + op.cfg.EmitShardBase
	if op.plane != nil {
		w.plane = op.plane
		w.emitHome = id % len(op.plane.workers)
	}
	ports := (*op.topo.ports.Load())[id]
	w.dataIn = ports.dataIn
	w.migIn = ports.migIn
	w.migNotify = ports.migNotify
	w.emitBatch = op.emitBatchFor(w)
	w.emit = w.emitOne
	return w
}

// emitBatchFor builds the joiner's result sink: per-joiner accounting
// and latency sampling are done once per flushed run, then the run is
// handed to the user's EmitBatch (or replayed pair-wise into Emit).
// The single-pair join.Emit the migration paths use is a thin adapter
// over this sink (joiner.emitOne), so per-pair and batched emission
// share one accounting implementation.
func (op *Operator) emitBatchFor(w *joiner) join.EmitBatch {
	user := op.cfg.Emit
	userBatch := op.cfg.EmitBatch
	if shardFn := op.cfg.EmitShard; shardFn != nil {
		// Sharded sink, inline emission: the joiner goroutine delivers
		// its own shard's runs, so per-shard serialization holds by
		// construction. EmitShard takes precedence over EmitBatch/Emit.
		shard := w.shard
		userBatch = func(ps []join.Pair) { shardFn(shard, ps) }
		user = nil
	}
	lat := op.cfg.Latency
	return func(ps []join.Pair) {
		if len(ps) == 0 {
			return
		}
		w.met.OutputPairs.Add(int64(len(ps)))
		if lat != nil {
			for i := range ps {
				newer := ps[i].R.Seq
				if ps[i].S.Seq > newer {
					newer = ps[i].S.Seq
				}
				lat.Emit(newer)
			}
		}
		switch {
		case userBatch != nil:
			userBatch(ps)
		case user != nil:
			for i := range ps {
				user(ps[i])
			}
		}
	}
}

// joinerTask wraps a joiner's run for the runner, retiring the joiner
// from the emit plane on exit so the plane can detect when no producer
// remains and let its workers drain and stop.
func (op *Operator) joinerTask(w *joiner) func() error {
	if op.plane == nil {
		return w.run
	}
	return func() error {
		defer op.plane.joinerDone()
		return w.run()
	}
}

// spawnChildren creates and starts the three children of every current
// joiner for an elastic expansion. Called by the controller, before
// the expansion epoch is broadcast.
func (op *Operator) spawnChildren(table []int, epoch uint32, newMapping matrix.Mapping) {
	op.mu.Lock()
	defer op.mu.Unlock()
	oldMapping := matrix.Mapping{N: newMapping.N / 2, M: newMapping.M / 2}
	e := matrix.NewExpansion(oldMapping)
	jBefore := len(table)

	newPorts := make([]*joinerPorts, 3*jBefore)
	for i := range newPorts {
		newPorts[i] = newJoinerPorts(op.cfg.DataQueueCap, op.cfg.BatchSize)
	}
	op.topo.add(newPorts)

	for idx, parent := range table {
		children := e.Children(oldMapping.CellOf(idx))
		for k := 1; k < 4; k++ {
			id := childID(jBefore, parent, k-1)
			cell := children[k]
			birth := &migState{
				epoch:         epoch,
				newMapping:    newMapping,
				newCell:       cell,
				expand:        true,
				keeps:         func(matrix.Side, uint64) bool { return true },
				mu:            storage.NewStore(op.cfg.Pred, op.cfg.Storage),
				dp:            storage.NewStore(op.cfg.Pred, op.cfg.Storage),
				probeBuf:      join.NewLocal(op.cfg.Pred),
				expectedDones: 1, // the parent's MigDone
			}
			w := op.newJoiner(id, cell, oldMapping, epoch-1, birth)
			op.joiners = append(op.joiners, w)
			if op.plane != nil {
				// Register before Go: expansion happens mid-stream while
				// every parent joiner is still live, so the plane's live
				// count cannot have dipped to zero.
				op.plane.joinerUp(1)
			}
			op.runner.Go(fmt.Sprintf("joiner-%d", id), op.joinerTask(w))
		}
	}
}

// Start launches all tasks. It is StartContext with a background
// context: the operator stops only via Finish.
func (op *Operator) Start() { op.StartContext(context.Background()) }

// StartContext launches all tasks under ctx. When ctx is cancelled
// every joiner and reshuffler task stops promptly (without draining),
// in-flight and subsequent Send/SendBatch calls return the
// cancellation error, and Finish returns it too. A task panic or error
// cancels the remaining tasks the same way, so a crashed joiner
// surfaces as a Finish error instead of a deadlock.
func (op *Operator) StartContext(ctx context.Context) {
	op.lifeMu.Lock()
	if op.started {
		op.lifeMu.Unlock()
		panic("core: Start called twice")
	}
	op.started = true
	op.lifeMu.Unlock()
	if op.place != nil {
		// Dial the workers before any task launches: topo.remote must
		// be installed before the first reshuffler push. StartContext
		// has no error return, so a failed dial cancels the runner —
		// Send and Finish surface it as their stop cause.
		if err := op.connectWorkers(); err != nil {
			op.runner.Cancel(err)
			op.runner.WatchContext(ctx, op.finishedCh)
			return
		}
	}
	// Rebuild joiner sinks now that Emit/EmitBatch are final (a nil
	// sink still counts results in emitBatchFor's accounting).
	for _, w := range op.joiners {
		w.emitBatch = op.emitBatchFor(w)
		w.emit = w.emitOne
	}
	if op.plane != nil {
		// Emit workers run under the same runner as the joiners: a panic
		// in the user's sink cancels the whole task set instead of
		// deadlocking joiners against a dead worker's queue. Every
		// initial joiner is registered before any launches, so the
		// plane's live count cannot hit zero before the last joiner
		// exits.
		for i := range op.plane.workers {
			op.runner.Go(fmt.Sprintf("emit-%d", i), func() error { return op.plane.runWorker(i) })
		}
		op.plane.joinerUp(len(op.joiners))
	}
	for _, w := range op.joiners {
		op.runner.Go(fmt.Sprintf("joiner-%d", w.id), op.joinerTask(w))
	}
	for i := 0; i < op.cfg.NumReshufflers; i++ {
		r := &reshuffler{
			id:         i,
			seed:       uint64(op.cfg.Seed),
			rng:        rand.New(rand.NewSource(op.cfg.Seed ^ int64(i)*0x9e3779b9)),
			ckptC:      op.ckptC,
			ingest:     op.ingest,
			obs:        op.ctl.obsCh,
			mapping:    op.cfg.Initial,
			table:      append([]int(nil), op.ctl.table...),
			source:     op.sources[i],
			ctrlCh:     make(chan ctrlMsg, 16),
			topo:       op.topo,
			opm:        op.met,
			lat:        op.cfg.Latency,
			drainCh:    op.ctl.drainCh,
			padDummies: op.cfg.PadDummies,
			batchSize:  op.cfg.BatchSize,
			linger:     op.cfg.BatchLinger,
			stop:       op.stop,
		}
		if i == 0 {
			r.ctl = op.ctl
			r.hint = &op.hint
		}
		op.ctl.resh = append(op.ctl.resh, r.ctrlCh)
		op.runner.Go(fmt.Sprintf("reshuffler-%d", i), r.run)
	}
	if op.cfg.Backend != nil {
		// The coordinator is a plain goroutine, not a runner task: it
		// must outlive runner.Wait (its quit closes after Wait returns)
		// and it recovers its own backend-write panics into a runner
		// cancellation rather than dying as a task.
		op.ckptWG.Add(1)
		go op.runCkptCoordinator()
	}
	op.runner.WatchContext(ctx, op.finishedCh)
}

// Send feeds one tuple into the operator, assigning its ingestion
// sequence number. It blocks when the operator is backlogged and
// returns ErrFinished (without delivering) once Finish has closed the
// input.
func (op *Operator) Send(t join.Tuple) error {
	if op.lanes == nil {
		t.Seq = op.seq.Add(1)
		return op.deal(sourceItem{t: t})
	}
	op.lifeMu.RLock()
	defer op.lifeMu.RUnlock()
	if op.closed {
		return ErrFinished
	}
	ln := op.lanePool.Get().(*sourceLane)
	ln.mu.Lock()
	t.Seq = ln.nextSeq(&op.seq)
	ln.mu.Unlock()
	op.lanePool.Put(ln)
	env := append(getItems(1), sourceItem{t: t})
	return op.pushAffine(ln, env)
}

// pushAffine delivers an envelope with reshuffler affinity: the home
// ring first, then — only under pressure, when home is full — the
// lane's remembered spill ring, then each successive ring non-blocking,
// falling back to a blocking push on home when every ring is
// backlogged. Light traffic stays core-local (one lane feeds one
// reshuffler, whose batches stay warm in one cache); a firehose feeder
// overflows its 512-envelope home ring and spills across the other
// rings, re-parallelizing the fanout exactly when there is enough work
// to justify it. The sticky spill cursor keeps concurrent pressured
// lanes spread over different rings instead of convoying onto each
// one's immediate neighbor.
func (op *Operator) pushAffine(ln *sourceLane, env []sourceItem) error {
	home := ln.home
	if op.trySend(home, env) {
		return nil
	}
	n := len(op.sources)
	if d := int(ln.spill.Load()); d != home && d < n {
		if op.trySend(d, env) {
			op.met.LaneSpills.Add(1)
			return nil
		}
	}
	for k := 1; k < n; k++ {
		d := home + k
		if d >= n {
			d -= n
		}
		if op.trySend(d, env) {
			ln.spill.Store(uint32(d))
			op.met.LaneSpills.Add(1)
			return nil
		}
	}
	return op.push(home, env)
}

// SendBatch feeds a run of tuples, assigning their ingestion sequence
// numbers in one atomic add and delivering them in pooled envelopes —
// one ring operation per destination reshuffler instead of one per
// tuple, with each tuple copied exactly once, straight from the input
// slice into its destination envelope. It is equivalent to calling
// Send on each tuple in order and may be freely interleaved with Send.
// The input slice is not retained.
func (op *Operator) SendBatch(ts []join.Tuple) error {
	n := len(ts)
	if n == 0 {
		return nil
	}
	op.lifeMu.RLock()
	defer op.lifeMu.RUnlock()
	if op.closed {
		return ErrFinished
	}
	if op.lanes != nil {
		// Sharded front end: the whole run rides one envelope to the
		// lane's home ring — no per-destination split, no shared-counter
		// contention beyond one grant refill per seqGrant tuples.
		ln := op.lanePool.Get().(*sourceLane)
		ln.mu.Lock()
		env := getItems(n)
		for i := range ts {
			t := ts[i]
			t.Seq = ln.nextSeq(&op.seq)
			env = append(env, sourceItem{t: t})
		}
		ln.mu.Unlock()
		op.lanePool.Put(ln)
		return op.pushAffine(ln, env)
	}
	base := op.seq.Add(uint64(n)) - uint64(n) + 1
	if len(op.sources) == 1 {
		env := getItems(n)
		for i := range ts {
			t := ts[i]
			t.Seq = base + uint64(i)
			env = append(env, sourceItem{t: t})
		}
		return op.push(0, env)
	}
	outs := make([][]sourceItem, len(op.sources))
	for i := range ts {
		seq := base + uint64(i)
		d := dealTarget(seq, len(op.sources))
		if outs[d] == nil {
			outs[d] = getItems(n)
		}
		t := ts[i]
		t.Seq = seq
		outs[d] = append(outs[d], sourceItem{t: t})
	}
	var firstErr error
	for d := range outs {
		if len(outs[d]) > 0 {
			if err := op.push(d, outs[d]); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// push delivers one envelope into a source ring, giving up (and
// recycling the envelope) when the operator stops. The returned error
// is the stop cause: the context's error after cancellation, or the
// first task failure.
//
// With a replay log, the ring's log mutex spans both the log append
// and the ring send: sends to one ring serialize on it, so the log's
// item order is exactly the reshuffler's consumption order and the
// consumed counter is a valid log cut. The append comes first because
// the send hands the pooled envelope over: the reshuffler may recycle
// it (putItems zeroes it) before this goroutine runs again, so env must
// not be read after the send. Items stay logged if and only if the
// send succeeded — the log is cut back when it does not, and a caller
// whose Send errored knows its tuples are not covered by any future
// checkpoint and must re-send them after a restore.
func (op *Operator) push(d int, env []sourceItem) error {
	if op.replay == nil {
		select {
		case op.sources[d] <- env:
			return nil
		case <-op.stop:
			putItems(env)
			return op.runner.Err()
		}
	}
	rg := &op.replay.rings[d]
	rg.mu.Lock()
	defer rg.mu.Unlock()
	n0 := len(rg.items)
	rg.items = append(rg.items, env...)
	select {
	case op.sources[d] <- env:
		return nil
	case <-op.stop:
		rg.items = truncItems(rg.items, n0)
		putItems(env)
		return op.runner.Err()
	}
}

// trySend is push's non-blocking variant, with the same
// log-before-hand-off discipline. It reports whether the envelope was
// delivered (and, with a replay log, kept in the log).
func (op *Operator) trySend(d int, env []sourceItem) bool {
	if op.replay == nil {
		select {
		case op.sources[d] <- env:
			return true
		default:
			return false
		}
	}
	rg := &op.replay.rings[d]
	rg.mu.Lock()
	defer rg.mu.Unlock()
	n0 := len(rg.items)
	rg.items = append(rg.items, env...)
	select {
	case op.sources[d] <- env:
		return true
	default:
		rg.items = truncItems(rg.items, n0)
		return false
	}
}

// truncItems cuts an undelivered envelope back out of a replay ring,
// zeroing the dropped copies so they pin no payloads.
func truncItems(items []sourceItem, n int) []sourceItem {
	clear(items[n:])
	return items[:n]
}

// dealTarget maps a sequence number to a reshuffler index: a
// multiplicative mix of the sequence number (so runs are reproducible
// and periodic input patterns cannot phase-lock against the dealing,
// which a plain round-robin would alias against), reduced to [0, n)
// with a multiply-shift instead of a modulo — the high 32 mixed bits
// scale into the destination range with one multiply, keeping the
// hot-path division off the ingest front end.
func dealTarget(seq uint64, n int) int {
	h := seq * 0x9e3779b97f4a7c15
	return int(((h >> 32) * uint64(n)) >> 32)
}

// deal routes one item to its pseudo-random reshuffler (the paper's
// "randomly routed to a reshuffler task") in a pooled singleton
// envelope.
func (op *Operator) deal(item sourceItem) error {
	op.lifeMu.RLock()
	defer op.lifeMu.RUnlock()
	if op.closed {
		return ErrFinished
	}
	env := append(getItems(1), item)
	return op.push(dealTarget(item.t.Seq, len(op.sources)), env)
}

// sendItems delivers a pooled envelope of items, splitting it per
// destination reshuffler. It takes ownership of env (recycling it when
// it cannot be forwarded whole).
func (op *Operator) sendItems(env []sourceItem) error {
	op.lifeMu.RLock()
	defer op.lifeMu.RUnlock()
	if op.closed {
		putItems(env)
		return ErrFinished
	}
	if len(op.sources) == 1 {
		// Single reshuffler (the grouped mode): forward the envelope
		// itself, no split and no copy.
		return op.push(0, env)
	}
	outs := make([][]sourceItem, len(op.sources))
	for i := range env {
		d := dealTarget(env[i].t.Seq, len(op.sources))
		if outs[d] == nil {
			outs[d] = getItems(len(env))
		}
		outs[d] = append(outs[d], env[i])
	}
	putItems(env)
	var firstErr error
	for d := range outs {
		if len(outs[d]) > 0 {
			if err := op.push(d, outs[d]); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// sendProbe feeds a probe-only tuple (multi-group traffic); the caller
// has already assigned Seq and U.
func (op *Operator) sendProbe(t join.Tuple) error {
	return op.deal(sourceItem{t: t, probeOnly: true})
}

// sendStored feeds a to-be-stored tuple with caller-assigned Seq/U.
func (op *Operator) sendStored(t join.Tuple) error {
	return op.deal(sourceItem{t: t})
}

// Finish closes the input and waits for all tasks to drain and stop.
// Further Send/SendBatch calls return ErrFinished; a second Finish is
// a no-op.
func (op *Operator) Finish() error {
	op.lifeMu.Lock()
	if op.closed {
		op.lifeMu.Unlock()
		return nil
	}
	op.closed = true
	for _, src := range op.sources {
		close(src)
	}
	op.lifeMu.Unlock()
	err := op.runner.Wait()
	close(op.finishedCh)
	if op.cfg.Backend != nil {
		// All tasks have exited, so no further ckpt events can arrive;
		// release the coordinator and wait it out (closed guards this
		// against running twice).
		close(op.ckptQuit)
		op.ckptWG.Wait()
	}
	// All tasks (including per-peer receivers and writers) have exited;
	// detach the cancellation watchers and close the worker links.
	for _, p := range op.peers {
		if p.release != nil {
			p.release()
		}
		_ = p.link.Close()
	}
	op.mu.Lock()
	for _, w := range op.joiners {
		_ = w.state.Close()
	}
	op.mu.Unlock()
	return err
}

// Metrics exposes the operator's counters.
func (op *Operator) Metrics() *metrics.Operator { return op.met }

// NumJoiners returns the current joiner count (grows under expansion).
func (op *Operator) NumJoiners() int {
	op.mu.Lock()
	defer op.mu.Unlock()
	return len(op.joiners)
}

// DeployedMapping returns the mapping the operator ended up with. Only
// meaningful after Finish.
func (op *Operator) DeployedMapping() matrix.Mapping { return op.ctl.deployed }

// Migrations returns the number of elementary migrations performed.
func (op *Operator) Migrations() int64 { return op.met.Migrations.Load() }
