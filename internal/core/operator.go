package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
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
	// (nil entry = in this process); reshuffler.broadcast and pushMig
	// consult it so senders are network-transparent. It is installed
	// before Start and never grows — distributed mode rejects elastic
	// expansion — and stays nil in single-process operators, where the
	// only cost is one nil check per flush or migration message.
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
	// dataIn carries shared envelopes: one channel operation moves up to
	// BatchSize tuples, or one control message.
	dataIn chan *envelope
	// migIn carries single messages: the framing markers (kMigBegin,
	// kMigDone) and migrated state, whose tuples already travel in bulk
	// inside each kMigBlocks message.
	migIn     *dataflow.Queue[message]
	migNotify chan struct{}
}

// newJoinerPorts sizes the data inbox in envelopes so the buffered
// tuple volume stays at dataCap regardless of batch size.
func newJoinerPorts(dataCap, batchSize int) *joinerPorts {
	capBatches := dataCap / batchSize
	if capBatches < 1 {
		capBatches = 1
	}
	return &joinerPorts{
		dataIn:    make(chan *envelope, capBatches),
		migIn:     dataflow.NewQueue[message](),
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

// pushData delivers one reference to envelope e on the (bounded) data
// link of joiner id, which runs in this process, providing backpressure
// to reshufflers. The receiver releases its reference after processing.
// When the operator is cancelled mid-send the reference is dropped here
// — the topology is unwinding and exactness no longer applies. Joiners
// behind a worker link get their envelopes from remotePeer.sendData.
func (tp *topology) pushData(id int, e *envelope) {
	select {
	case (*tp.ports.Load())[id].dataIn <- e:
	case <-tp.stop:
		e.release()
	}
}

// pushMig delivers one message on a joiner's unbounded migration link.
// Sends never block, which is what makes the pairwise state exchange
// deadlock-free.
func (tp *topology) pushMig(id int, m message) {
	tp.met.MigBatchesSent.Add(1)
	if tp.isRemote(id) {
		// Queued, never blocking: same contract as the in-process
		// unbounded migration link.
		tp.remote[id].queueMig(id, m)
		return
	}
	p := (*tp.ports.Load())[id]
	p.migIn.Push(m)
	select {
	case p.migNotify <- struct{}{}:
	default:
	}
}

// reserveHint is the controller's published per-joiner stored-tuple
// forecast, one cell per side. The controller reshuffler derives it
// from the exact sharded cardinality counts (stats.Snapshot.PerJoiner)
// and republishes on significant growth. Joiners poll it once per
// processed envelope and presize their private hash directory and
// chain columns ahead of the ingest that would otherwise grow them
// incrementally — except on a side a live segment serves, whose
// windows the slot's writer indexes (no arena block is preallocated
// either way). Slot indexes grow by doubling, unpresized. It is a hint
// in both directions: a zero or stale value only means growth proceeds
// as usual.
type reserveHint struct {
	perR, perS atomic.Int64
}

// Config configures the Operator on either of its routes: the grid
// (NewOperator) and the hash route (NewSHJ). Each constructor checks it
// with Validate before building anything.
type Config struct {
	// J is the number of joiners, any positive count. The hash route
	// runs exactly J. The grid route runs the largest power of two ≤ J
	// (Validate rounds it down): a 6-joiner grid is a (2,2) or (1,4)
	// grid of 4. This replaces the paper's decomposition of J into
	// power-of-two groups (§4.2.2), each seeing the whole stream: the
	// largest group alone receives no more input per joiner than the
	// groups do, and it composes with every other feature. What it gives
	// up is storage spread: each joiner stores up to J/J′ < 2 times what
	// a joiner of the decomposition would, which matters only against a
	// per-joiner Storage.CapBytes.
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
	// partly full. Routing does not depend on the count. A worker takes
	// the coordinator's count from its hello, a restore the snapshot's.
	NumReshufflers int
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
	// ErrNoBackend) and removes all of its ingest-path cost. Snapshots
	// are incremental; the chain is compacted by its dead bytes (see
	// commitCkpt), so nothing about it is configurable.
	Backend storage.Backend
	// CheckpointEvery triggers an automatic checkpoint after every n
	// ingested tuples (measured at the exact merged ingest count). It
	// requires a Backend; 0 leaves checkpointing purely manual.
	CheckpointEvery int64
	// CheckpointKeep is how many committed checkpoint generations the
	// backend retains for last-good fallback restore. The replay log is
	// trimmed only to the oldest retained generation's cut, so every
	// retained generation stays replayable after a fallback. 0 means
	// storage.DefaultKeep; values below 1 clamp to 1.
	CheckpointKeep int
	// CheckpointPolicy selects the reaction to a checkpoint commit that
	// fails even after the backend's own retries: CkptDegrade (the
	// default) keeps joining and retries at the next boundary,
	// CkptFailStop cancels the operator.
	CheckpointPolicy CheckpointPolicy
	// EmitBatch receives join results a run at a time; it must not
	// block. The slice is only valid for the duration of the call — the
	// operator reuses the backing buffer. nil (with no EmitShard)
	// counts results internally.
	EmitBatch join.EmitBatch
	// EmitShard, if non-nil, takes precedence over EmitBatch: results
	// arrive tagged with the emitting joiner's id as the shard id.
	// Calls within one shard are
	// serialized; different shards run concurrently with no cross-shard
	// order — the sink form that lets J joiners emit without one shared
	// mutex.
	EmitShard join.ShardedEmitBatch
	// Latency, if non-nil, samples tuple latencies.
	Latency *metrics.LatencySampler
	// Seed makes the random routing reproducible.
	Seed int64
	// DataQueueCap is the per-joiner data inbox capacity in tuples
	// (default 1024): the inbox channel holds DataQueueCap/BatchSize
	// envelopes, so buffered volume is independent of BatchSize.
	DataQueueCap int
	// BatchSize is the capacity of the reshuffler->joiner envelope in
	// tuples of one relation: one envelope per grid row (R) or column (S),
	// shared by every joiner of it. Envelopes flush when full, before
	// every protocol barrier (epoch signal, checkpoint marker, EOS), when
	// the reshuffler goes idle, and when BatchLinger expires. 0 means
	// DefaultBatchSize; 1 ships every routed tuple alone.
	BatchSize int
	// BatchLinger bounds how long a routed tuple may wait in a partial
	// envelope while the reshuffler stays busy, keeping tail latency
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

// DefaultBatchSize is the batch envelope capacity used when
// Config.BatchSize is zero.
const DefaultBatchSize = 32

// DefaultBatchLinger is the partial-batch flush budget used when
// Config.BatchLinger is zero.
const DefaultBatchLinger = 200 * time.Microsecond

// EngineKind names the engine a Config is validated for.
type EngineKind uint8

const (
	// GridEngine is the Operator's grid route (NewOperator).
	GridEngine EngineKind = iota
	// HashEngine is the Operator's hash route (NewSHJ).
	HashEngine
)

// Validate checks c for the given engine and resolves zero-valued
// knobs to their defaults; every constructor calls it before building
// anything, so a misconfiguration is an error, never a half-built
// engine. On the grid route it rounds J down to the largest power of
// two ≤ J. Features only the grid route implements — checkpointing and
// remote workers — are rejected by the hash route rather than silently
// dropped, since dropping them would change durability or placement,
// not just tuning.
func (c *Config) Validate(kind EngineKind) error {
	if c.J <= 0 {
		return fmt.Errorf("core: J=%d joiners, want at least one", c.J)
	}
	if kind == GridEngine {
		c.J = 1 << (bits.Len(uint(c.J)) - 1)
	}
	if c.DataQueueCap <= 0 {
		c.DataQueueCap = 1024
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("core: CheckpointEvery=%d, want 0 (manual) or a positive tuple count", c.CheckpointEvery)
	}
	if c.CheckpointEvery > 0 && c.Backend == nil {
		return errors.New("core: CheckpointEvery requires a Backend")
	}
	// Written so that NaN fails too: it would compare false against
	// every threshold and silently disable migration.
	if kind != HashEngine && !(c.Epsilon >= 0 && c.Epsilon <= 1) {
		return fmt.Errorf("core: Epsilon=%v, want a value in [0,1] (0 means 1)", c.Epsilon)
	}
	if kind == HashEngine {
		if c.Backend != nil {
			return errors.New("core: checkpointing (a Backend) requires the grid route")
		}
		if len(c.Workers) > 0 {
			return errors.New("core: remote workers require the grid route")
		}
		if c.Pred.Kind != join.Equi {
			return fmt.Errorf("core: hash partitioning supports only equi-joins, got %v", c.Pred.Kind)
		}
		// The hash route's joiners form one row that never migrates,
		// grows or pads, so the grid's shape and adaptation knobs do not
		// apply.
		c.Initial = matrix.Mapping{N: 1, M: c.J}
		c.Adaptive, c.PadDummies = false, false
		c.MaxTuplesPerJoiner, c.MaxJoiners = 0, 0
	} else {
		if c.Initial == (matrix.Mapping{}) {
			c.Initial = matrix.Square(c.J)
		}
		if !c.Initial.Valid() || c.Initial.J() != c.J {
			return fmt.Errorf("core: initial mapping %v invalid for J=%d", c.Initial, c.J)
		}
	}
	if len(c.Workers) > 0 {
		if c.Backend != nil {
			return errors.New("core: checkpointing requires a single-process operator (no Workers)")
		}
		if c.MaxTuplesPerJoiner > 0 {
			return errors.New("core: elastic expansion requires a single-process operator (no Workers)")
		}
		if c.Pred.Kind == join.Theta || c.Pred.Residual != nil {
			return errors.New("core: remote workers require a serializable predicate (equi or band join, no residual)")
		}
		if c.Placement != nil {
			if len(c.Placement) != c.J {
				return fmt.Errorf("core: placement has %d entries for J=%d", len(c.Placement), c.J)
			}
			for id, w := range c.Placement {
				if w < -1 || w >= len(c.Workers) {
					return fmt.Errorf("core: joiner %d placed on worker %d of %d", id, w, len(c.Workers))
				}
			}
		}
	}
	if c.NumReshufflers <= 0 {
		c.NumReshufflers = min(c.J, runtime.GOMAXPROCS(0))
	}
	if c.BatchSize <= 0 {
		c.BatchSize = DefaultBatchSize
	}
	if c.BatchLinger == 0 {
		c.BatchLinger = DefaultBatchLinger
	}
	if c.CheckpointKeep == 0 {
		c.CheckpointKeep = storage.DefaultKeep
	}
	if c.CheckpointKeep < 1 {
		c.CheckpointKeep = 1
	}
	if len(c.Workers) > 0 {
		if err := checkWorkerBounds(c.J, c.NumReshufflers, c.BatchSize, c.DataQueueCap); err != nil {
			return fmt.Errorf("core: remote workers: %w", err)
		}
	}
	return nil
}

// ErrFinished is returned by Send/SendBatch after Finish has closed
// the operator's input.
var ErrFinished = errors.New("core: operator is finished")

// Operator is the parallel online join operator. Feed it interleaved R
// and S tuples with Send or SendBatch; results flow to Config.EmitBatch
// (or EmitShard) as they are discovered; Finish drains and stops all
// tasks.
//
// Its reshufflers take one of two routes, fixed at construction. The
// grid route (NewOperator) is the paper's content-insensitive (n,m)
// grid: each tuple goes to a random row or column of joiners, and with
// Adaptive the controller reshapes the grid as cardinalities drift. The
// hash route (NewSHJ) is the SHJ baseline the evaluation compares
// against (§5): both relations are partitioned on the join key, so each
// tuple goes to exactly one joiner — no replication, but under key skew
// a few joiners receive most of the input.
type Operator struct {
	cfg    Config
	hashed bool // the hash route: see NewSHJ
	topo   *topology
	met    *metrics.Operator
	runner dataflow.Runner

	// sources holds one input ring per reshuffler, carrying pooled
	// []join.Tuple envelopes. Every input is dealt pseudo-randomly by
	// sequence number (sendItems), modeling the paper's random
	// tuple-to-reshuffler routing: each reshuffler — in particular the
	// controller — sees an unbiased 1/numReshufflers sample of the
	// stream in arrival order.
	sources []chan []join.Tuple
	ctl     *controller
	hint    reserveHint
	// ingest holds one cardinality cell per reshuffler (see
	// stats.Sharded for what reads them).
	ingest *stats.Sharded

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
	// ckptChain, ckptChainBytes, ckptFullBytes and cutHist are
	// coordinator-goroutine-private incremental-checkpoint state: the
	// committed delta chain (base first) the next snapshot's
	// dependencies come from, the chain's total blob bytes, what a full
	// snapshot measured at the newest commit (the compaction rule in
	// commitCkpt compares the two), and the retained generations' replay
	// cuts (oldest first, capped at CheckpointKeep) bounding how far the
	// replay log may be trimmed.
	ckptChain      []uint64
	ckptChainBytes int64
	ckptFullBytes  int64
	cutHist        []ckptCut
	// ckptAlwaysFull makes every checkpoint a full snapshot; tests set
	// it before Start to measure one.
	ckptAlwaysFull bool
	// ckptCommitted, when set before Start, sees every commit's figures
	// on the coordinator goroutine; tests read the chain bound with it.
	ckptCommitted func(ckptCommit)

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
	// frameBlocks holds a worker's open shared block per data-frame slot
	// of the newest epoch seen, frameEpoch (fanOut); frameMigrated
	// records that a newer epoch has replaced the first one seen, which
	// indexesSlots is asked with. Only the session's receive loop
	// touches them.
	frameBlocks   map[frameSlot]*slotBlock
	frameEpoch    uint32
	frameMigrated bool

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

// NewOperator builds an operator on the grid route, or reports why cfg
// cannot; call Start before Send.
func NewOperator(cfg Config) (*Operator, error) {
	if err := cfg.Validate(GridEngine); err != nil {
		return nil, err
	}
	return newOperator(cfg, false), nil
}

// NewSHJ builds an operator on the hash route, or reports why cfg
// cannot: J may be any positive count, Pred must be an equi-join, and
// checkpointing and remote workers are rejected. A tuple goes to
// joiner HashPartition(Key, J), whose id is also its EmitShard id.
func NewSHJ(cfg Config) (*Operator, error) {
	if err := cfg.Validate(HashEngine); err != nil {
		return nil, err
	}
	return newOperator(cfg, true), nil
}

// newOperator builds an operator from a validated cfg on the given
// route.
func newOperator(cfg Config, hashed bool) *Operator {
	op := &Operator{
		cfg:        cfg,
		hashed:     hashed,
		topo:       &topology{},
		met:        metrics.NewOperator(cfg.J),
		finishedCh: make(chan struct{}),
	}
	op.stop = op.runner.Done()
	op.topo.met = op.met
	op.topo.stop = op.stop
	op.sources = make([]chan []join.Tuple, cfg.NumReshufflers)
	for i := range op.sources {
		// Sized in envelopes; a Send wraps one tuple per envelope, so
		// per-tuple producers see the same buffered depth as before.
		op.sources[i] = make(chan []join.Tuple, 512)
	}
	op.ingest = stats.NewSharded(cfg.NumReshufflers)
	var dec *Decider
	if !hashed {
		// The hash route is never adaptive, so its controller never
		// consults a decider.
		dec = NewDecider(DeciderConfig{
			J:            cfg.J,
			Initial:      cfg.Initial,
			Epsilon:      cfg.Epsilon,
			Warmup:       cfg.Warmup,
			MaxPerJoiner: cfg.MaxTuplesPerJoiner,
		})
	}
	op.ctl = newController(dec, op)
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
// coordinator, the hello-masked subset on a worker, where id may arrive
// off the link out of range.
func (op *Operator) hostsJoiner(id int) bool {
	if op.cfg.hosted != nil {
		return id >= 0 && id < len(op.cfg.hosted) && op.cfg.hosted[id]
	}
	return op.place == nil || op.place[id] < 0
}

// sharesBlocks reports whether the operator's joiners store shared
// windows, so that a reshuffler slot, or a worker's receive loop, writes
// each tuple's columns once for the several joiners it ships them to:
// on the grid route (the hash route replicates nothing), with an equi
// predicate (hash-indexed stores keep views) and unbudgeted stores (a
// budgeted one copies what it may spill).
func (op *Operator) sharesBlocks() bool {
	return !op.hashed && op.cfg.Pred.Kind == join.Equi && op.cfg.Storage.CapBytes == 0
}

// maxIndexedReshufflers bounds the reshufflers whose sharing slots keep
// slot indexes. A joiner's store reads one slot index per reshuffler
// and side, and every probe walks them all: on one (4,4) grid at 2^22
// uniform keys (BenchmarkRowInsertProbe, time per stored replica on 2
// CPUs) slot indexes take 0.4x the private directories' time with one
// reshuffler, 0.8x with two, break even with four and take 2x with
// eight and 3.4x with sixteen; sparse_equi at four reshufflers ran a
// third slower with them.
const maxIndexedReshufflers = 2

// indexesSlots is the one policy for slot indexes: whether a sharing
// slot — a reshuffler's, or a worker's frame slot (frameBlock) — keeps
// one (join.BlockWriter.Reset). Only an operator of at most
// maxIndexedReshufflers reshufflers indexes slots, and a writer stops
// once it has seen the epoch change (epochChanged): every migration
// re-indexes what the joiners keep in their own directories (Retain
// folds or rebuilds, MergeFrom indexes what it adopts), so an index
// written after one would be paid for twice whenever another follows.
func (op *Operator) indexesSlots(epochChanged bool) bool {
	return !epochChanged && op.cfg.NumReshufflers <= maxIndexedReshufflers
}

// newJoiner constructs a joiner task; birth, when non-nil, pre-arms an
// expansion child's migration state.
func (op *Operator) newJoiner(id int, cell matrix.Cell, mapping matrix.Mapping, epoch uint32, birth *migState) *joiner {
	op.met.Grow(id + 1)
	table := append([]int(nil), op.ctl.table...)
	w := &joiner{
		id:      id,
		pred:    op.cfg.Pred,
		numRe:   op.cfg.NumReshufflers,
		cell:    cell,
		mapping: mapping,
		epoch:   epoch,
		table:   table,
		state:   storage.NewStore(op.cfg.Pred, op.cfg.Storage),
		topo:    op.topo,
		ackCh:   op.ctl.ackCh,
		met:     op.met.JoinerStats(id),
		stCfg:   op.cfg.Storage,
		mig:     birth,
		hint:    &op.hint,
		ckptC:   op.ckptC,
		stop:    op.stop,
	}
	ports := (*op.topo.ports.Load())[id]
	w.dataIn = ports.dataIn
	w.migIn = ports.migIn
	w.migNotify = ports.migNotify
	w.emitBatch = op.emitBatchFor(w)
	return w
}

// emitBatchFor builds the joiner's result sink: per-joiner accounting
// and latency sampling are done once per flushed run, then the run is
// handed to the user's EmitBatch or EmitShard.
func (op *Operator) emitBatchFor(w *joiner) join.EmitBatch {
	userBatch := op.cfg.EmitBatch
	if shardFn := op.cfg.EmitShard; shardFn != nil {
		// The joiner goroutine delivers its own shard's runs, so
		// per-shard serialization holds by construction.
		shard := w.id
		userBatch = func(ps []join.Pair) { shardFn(shard, ps) }
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
		if userBatch != nil {
			userBatch(ps)
		}
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
				keep:          [2]matrix.Top{matrix.TopAll, matrix.TopAll},
				mu:            storage.NewStore(op.cfg.Pred, op.cfg.Storage),
				dp:            storage.NewStore(op.cfg.Pred, op.cfg.Storage),
				expectedDones: 1, // the parent's MigDone
			}
			w := op.newJoiner(id, cell, oldMapping, epoch-1, birth)
			op.joiners = append(op.joiners, w)
			op.runner.Go(fmt.Sprintf("joiner-%d", id), w.run)
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
	for _, w := range op.joiners {
		op.runner.Go(fmt.Sprintf("joiner-%d", w.id), w.run)
	}
	for i := 0; i < op.cfg.NumReshufflers; i++ {
		r := &reshuffler{
			id:         i,
			seed:       uint64(op.cfg.Seed),
			rng:        rand.New(rand.NewSource(op.cfg.Seed ^ int64(i)*0x9e3779b9)),
			ckptC:      op.ckptC,
			ingest:     op.ingest,
			pacer:      op.ctl.pacerCh,
			mapping:    op.cfg.Initial,
			table:      append([]int(nil), op.ctl.table...),
			source:     op.sources[i],
			ctrlCh:     make(chan ctrlMsg, 16),
			topo:       op.topo,
			opm:        op.met,
			lat:        op.cfg.Latency,
			drainCh:    op.ctl.drainCh,
			padDummies: op.cfg.PadDummies,
			hashed:     op.hashed,
			share:      op.sharesBlocks(),
			indexes:    op.indexesSlots,
			batchSize:  op.cfg.BatchSize,
			linger:     op.cfg.BatchLinger,
			stop:       op.stop,
		}
		if i == 0 {
			r.ctl = op.ctl
			if !op.hashed {
				// The hint forecasts per-joiner state under a grid; a hash
				// route's is key-dependent, so it reserves nothing.
				r.hint = &op.hint
			}
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
// input. Concurrent feeders share the one atomic sequence counter and
// the deal.
func (op *Operator) Send(t join.Tuple) error {
	t.Seq = op.seq.Add(1)
	return op.sendItems(1, func(int) join.Tuple { return t })
}

// SendBatch feeds a run of tuples, assigning their ingestion sequence
// numbers in one atomic add. It is equivalent to calling Send on each
// tuple in order and may be freely interleaved with Send. The input
// slice is not retained.
func (op *Operator) SendBatch(ts []join.Tuple) error {
	n := len(ts)
	if n == 0 {
		return nil
	}
	base := op.seq.Add(uint64(n)) - uint64(n) + 1
	return op.sendItems(n, func(i int) join.Tuple {
		t := ts[i]
		t.Seq = base + uint64(i)
		return t
	})
}

// sendItems is the one path from the ingest edge into the source
// rings: Send, SendBatch and ReplayFrom all deliver through it. Item
// i, built by item(i) with its Seq already stamped, goes to reshuffler
// dealTarget(Seq) — the paper's random tuple-to-reshuffler routing
// (Alg. 1). Each destination's share ships as one pooled envelope, so
// a run costs one ring operation per destination, and each item is
// copied once, straight from where item reads it into its destination
// envelope.
func (op *Operator) sendItems(n int, item func(i int) join.Tuple) error {
	op.lifeMu.RLock()
	defer op.lifeMu.RUnlock()
	if op.closed {
		return ErrFinished
	}
	if n == 1 {
		// Nothing to split: skip the per-destination table, which costs
		// an allocation past eight rings.
		it := item(0)
		return op.push(dealTarget(it.Seq, len(op.sources)), append(getItems(1), it))
	}
	var small [8][]join.Tuple
	outs := small[:0]
	if k := len(op.sources); k <= len(small) {
		outs = small[:k]
	} else {
		outs = make([][]join.Tuple, k)
	}
	for i := 0; i < n; i++ {
		it := item(i)
		d := dealTarget(it.Seq, len(outs))
		if outs[d] == nil {
			outs[d] = getItems(n)
		}
		outs[d] = append(outs[d], it)
	}
	var firstErr error
	for d, env := range outs {
		if len(env) > 0 {
			if err := op.push(d, env); err != nil && firstErr == nil {
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
func (op *Operator) push(d int, env []join.Tuple) error {
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
	n0 := rg.n
	rg.append(env)
	select {
	case op.sources[d] <- env:
		return nil
	case <-op.stop:
		rg.truncate(n0) // pins no payloads of the undelivered copies
		putItems(env)
		return op.runner.Err()
	}
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
