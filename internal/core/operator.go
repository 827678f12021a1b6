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
	// (and CheckpointEvery) snapshots the whole operator —
	// joiner stores, controller mapping/epoch, ingest cursors — through
	// it, and RestoreOperator rebuilds from its latest committed
	// snapshot. nil disables checkpointing (Checkpoint returns
	// ErrNoBackend) and removes all of its ingest-path cost. Snapshots
	// are incremental; the chain is compacted by its dead bytes (see
	// commitCkpt), so nothing about it is configurable.
	Backend storage.Backend
	// CheckpointEvery triggers an automatic checkpoint once n tuples
	// have been ingested since the last checkpoint was issued (measured
	// at the exact merged ingest count); any checkpoint, a manual one
	// included, restarts the count. It requires a Backend; 0 leaves
	// checkpointing purely manual.
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
	// envelopes, at least one, so buffered volume is independent of
	// BatchSize; at the defaults that is 2 envelopes.
	DataQueueCap int
	// BatchSize is the capacity of the reshuffler->joiner envelope in
	// tuples of one relation: one envelope per grid row (R) or column (S),
	// shared by every joiner of it. Envelopes flush when full, before
	// every protocol barrier (epoch signal, checkpoint marker, EOS), when
	// the reshuffler goes idle, and when BatchLinger expires. 0 means
	// DefaultBatchSize (a block, join.WindowRows); 1 ships every routed
	// tuple alone. When the joiners store shared windows (not band, not
	// budgeted), an envelope holds a block at most, whatever the size.
	// Under load a tuple may wait up to BatchLinger in a partial
	// envelope.
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
// Config.BatchSize is zero: a block's rows, so that an envelope is one
// window of its line's block, or two where it crosses into the next
// (join.BlockWriter.AppendPacked), and each envelope's fixed costs —
// the line's lock, the window's index entry, the inbox sends and
// joiner wake-ups — are spread over up to a block's rows.
const DefaultBatchSize = join.WindowRows

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
	// A negative band width joins nothing, and a worker would take it
	// from the hello's PredWidth all the same.
	if c.Pred.Kind == join.Band && c.Pred.Width < 0 {
		return fmt.Errorf("core: band width %d, want 0 or more", c.Pred.Width)
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
	// tuple-to-reshuffler routing: each reshuffler — in particular
	// reshuffler 0, whose cell the controller samples — sees an unbiased
	// 1/numReshufflers sample of the stream in arrival order.
	sources []chan []join.Tuple
	ctl     *controller
	// ingest holds one cardinality cell per reshuffler (see
	// stats.Sharded for what reads them).
	ingest *stats.Sharded

	// replay is the ingest-edge replay log (nil without a Backend):
	// every envelope entering a source ring is also appended to the
	// ring's log, under a per-ring mutex spanning the ring send so log
	// order equals delivery order. Checkpoints record each ring's
	// consumed cut and trim the log to it once the snapshot is durable.
	replay *ReplayLog
	// ckptChain, ckptChainBytes, ckptFullBytes and cutHist are the
	// control task's private incremental-checkpoint state: the
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
	// on the control task; tests read the chain bound with it.
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
	// frameBlocks holds a worker's open shared block per data-frame line
	// of the newest epoch seen, frameEpoch (fanOut). Only the session's
	// receive loop touches them.
	frameBlocks map[frameSlot]*slotBlock
	frameEpoch  uint32

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
	if cfg.Backend != nil {
		op.replay = newReplayLog(cfg.NumReshufflers, op.met)
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

// sharesBlocks reports whether the operator's joiners store windows,
// so that a grid line's writer, or a worker's receive loop, writes each
// tuple's columns once for every in-process joiner it ships them to:
// unless the predicate is a band (an ordered index keeps its tuples in
// its own leaves, and a band line shares a tree instead: sharesTrees)
// or the stores are budgeted (a budgeted store copies what it may
// spill).
func (op *Operator) sharesBlocks() bool {
	return op.cfg.Pred.Kind != join.Band && op.cfg.Storage.CapBytes == 0
}

// indexesLines reports whether the operator's block lines keep a slot
// index, in every epoch: an equi-join's hash stores read it through
// their segments, and a theta join's scan stores read none.
func (op *Operator) indexesLines() bool { return op.cfg.Pred.Kind == join.Equi }

// sharesTrees reports whether the lines of a band operator's first
// epoch keep one ordered index per line and process (join.LineTree),
// which the line's in-process joiners read as of their watermarks:
// unless the stores are budgeted. Later epochs' band lines keep none: a
// migration folds a joiner's tree segment into its own tree, so a line
// tree written after one would be paid for twice. A worker's frame
// lines keep none; its joiners insert into their own trees.
func (op *Operator) sharesTrees() bool {
	return op.cfg.Pred.Kind == join.Band && op.cfg.Storage.CapBytes == 0
}

// line is the writer of one grid line in this process, for its
// in-process joiners: a block writer, or on a band operator's indexing
// epoch a line tree (nil on a line of fewer than two in-process
// joiners). A reshuffler writes through it holding mu.
type line struct {
	mu   sync.Mutex
	w    join.BlockWriter
	tree *join.LineTree
}

// newLines returns a writer per line (reshuffler slot) of grid m over
// the joiner table, for the line's in-process joiners, with a slot
// index in every epoch when indexesLines: a migration hands a joiner's line segments over
// as they are, filtered, and re-indexes nothing (join.HashIndex.Retain,
// MergeFrom). A band operator's lines keep line trees instead, in the
// first epoch only (sharesTrees). nil when the epoch's lines write
// nothing. Every reshuffler of the epoch writes through the same ones.
func (op *Operator) newLines(m matrix.Mapping, table []int, first bool) []line {
	trees := op.sharesTrees() && first
	if !op.sharesBlocks() && !trees {
		return nil
	}
	slots := reshuffler{mapping: m, table: table, hashed: op.hashed}
	slots.resetSlots()
	lines := make([]line, len(slots.out))
	for s := range lines {
		local := 0
		for _, id := range slots.slotDests(s) {
			if !op.topo.isRemote(id) {
				local++
			}
		}
		switch {
		case !trees:
			lines[s].w.Reset(local, op.indexesLines(), uint64(op.cfg.Seed))
		case local > 1:
			// One reader would insert each row at the same cost into its
			// own tree.
			lines[s].tree = join.NewLineTree(local)
		}
	}
	return lines
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
		ckptC:   op.ctl.ckptC,
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

// StartContext launches all tasks under ctx: the joiners, one
// reshuffler per source ring, and the control task. When ctx is
// cancelled every task stops promptly (without draining),
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
	lines := op.newLines(op.cfg.Initial, op.ctl.table, true)
	for i := 0; i < op.cfg.NumReshufflers; i++ {
		r := &reshuffler{
			id:         i,
			seed:       uint64(op.cfg.Seed),
			rng:        rand.New(rand.NewSource(op.cfg.Seed ^ int64(i)*0x9e3779b9)),
			ckptC:      op.ctl.ckptC,
			ingest:     op.ingest,
			ticks:      op.ctl.ticks,
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
			lines:      lines,
			batchSize:  op.cfg.BatchSize,
			linger:     op.cfg.BatchLinger,
			blockCap:   op.sharesBlocks(),
			stop:       op.stop,
		}
		if i == 0 && op.cfg.Adaptive {
			r.gate = op.ctl.gate // Alg. 1's sample
		}
		op.ctl.resh = append(op.ctl.resh, r.ctrlCh)
		op.runner.Go(fmt.Sprintf("reshuffler-%d", i), r.run)
	}
	op.runner.Go("control", op.ctl.run)
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
// (Alg. 1). Each destination's share ships in pooled envelopes of at
// most sourceBurst items, so a run costs about one ring operation per
// destination and burst, and each item is copied once, straight from
// where item reads it into its destination envelope.
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
	var firstErr error
	ship := func(d int) {
		if err := op.push(d, outs[d]); err != nil && firstErr == nil {
			firstErr = err
		}
		outs[d] = nil
	}
	for i := 0; i < n; i++ {
		it := item(i)
		d := dealTarget(it.Seq, len(outs))
		if outs[d] == nil {
			outs[d] = getItems(min(n, sourceBurst))
		}
		if outs[d] = append(outs[d], it); len(outs[d]) == sourceBurst {
			ship(d)
		}
	}
	for d := range outs {
		if outs[d] != nil {
			ship(d)
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
	n0 := rg.log.Len()
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
	// All tasks (including per-peer receivers and writers) have exited;
	// detach the cancellation watchers and close the worker links.
	for _, p := range op.peers {
		if p.release != nil {
			p.release()
		}
		_ = p.link.Close() // drop: every task has exited, so nothing more crosses the link
	}
	op.mu.Lock()
	for _, w := range op.joiners {
		_ = w.state.Close() // drop: a joiner that ran closed its store and returned the error; this releases the rest
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
