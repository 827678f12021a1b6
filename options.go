package squall

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/join"
)

// Option configures one pipeline stage, or — passed to NewPipeline —
// the defaults every stage of that pipeline inherits. Options are the
// documented construction path for engines; the raw Config structs
// remain as compatibility shims.
type Option func(*stageConfig)

// stageConfig is the resolved configuration of one stage before its
// engine is built.
type stageConfig struct {
	cfg core.Config
	// grouped forces the power-of-two group decomposition even when J
	// is a power of two (one group); it is implied when J is not.
	grouped bool
	// listen is the worker-mode listen address (WithListen), consumed
	// by ServeWorker rather than a stage builder.
	listen string
}

// DefaultJoiners is the joiner-task count used when WithJoiners is not
// given.
const DefaultJoiners = 16

func newStageConfig(defaults, opts []Option) stageConfig {
	sc := stageConfig{cfg: core.Config{J: DefaultJoiners}}
	for _, o := range defaults {
		o(&sc)
	}
	for _, o := range opts {
		o(&sc)
	}
	return sc
}

// WithJoiners sets the machine (joiner-task) count. Powers of two run
// the single-grid operator; any other count runs the power-of-two
// group decomposition (§4.2.2) automatically.
func WithJoiners(j int) Option { return func(sc *stageConfig) { sc.cfg.J = j } }

// WithGrouped forces the group-decomposed operator even for a
// power-of-two joiner count (a single group); mostly useful for tests
// comparing the two drive paths.
func WithGrouped() Option { return func(sc *stageConfig) { sc.grouped = true } }

// WithAdaptive enables the controller's migration decisions; without
// it the stage runs a static grid.
func WithAdaptive() Option { return func(sc *stageConfig) { sc.cfg.Adaptive = true } }

// WithWarmup sets the minimum (estimated) input before the first
// adaptation (the paper uses 500K tuples, §5.4).
func WithWarmup(tuples int64) Option { return func(sc *stageConfig) { sc.cfg.Warmup = tuples } }

// WithEpsilon sets Alg. 2's ε (0 means 1, the 1.25-competitive
// setting): smaller tracks the optimum more tightly but migrates more.
func WithEpsilon(eps float64) Option { return func(sc *stageConfig) { sc.cfg.Epsilon = eps } }

// WithInitialMapping pins the starting (n,m) grid; the zero value
// means the square mapping. Combine with a non-adaptive stage for the
// StaticMid/StaticOpt baselines.
func WithInitialMapping(m Mapping) Option { return func(sc *stageConfig) { sc.cfg.Initial = m } }

// WithSeed makes the stage's routing randomness reproducible.
func WithSeed(seed int64) Option { return func(sc *stageConfig) { sc.cfg.Seed = seed } }

// WithBatchSize sets the data-plane batch envelope capacity in
// messages (default DefaultBatchSize; 1 degenerates to the
// per-message plane). Chained stages also size their inter-stage
// forwarding buffers with it.
func WithBatchSize(n int) Option { return func(sc *stageConfig) { sc.cfg.BatchSize = n } }

// WithBatchLinger bounds how long a routed tuple may wait in a partial
// batch (default DefaultBatchLinger; negative disables the timer).
func WithBatchLinger(d time.Duration) Option {
	return func(sc *stageConfig) { sc.cfg.BatchLinger = d }
}

// WithMigBatchSize sets the migration-plane envelope capacity
// (default: the data-plane batch size; 1 degenerates to per-message).
func WithMigBatchSize(n int) Option { return func(sc *stageConfig) { sc.cfg.MigBatchSize = n } }

// WithStorage bounds per-joiner memory and configures the disk-spill
// tier.
func WithStorage(cfg StorageConfig) Option { return func(sc *stageConfig) { sc.cfg.Storage = cfg } }

// WithBackend enables barrier checkpointing against the given durable
// store: Operator.Checkpoint (and the WithCheckpointEvery pacer)
// snapshots joiner state, controller mapping, and ingest cursors
// through it, and Restore rebuilds from its latest committed snapshot.
// Only the single-grid operator supports it; a grouped stage
// (non-power-of-two joiners, or WithGrouped) rejects it at build time.
func WithBackend(b Backend) Option { return func(sc *stageConfig) { sc.cfg.Backend = b } }

// WithCheckpointEvery makes a backend-equipped stage checkpoint
// automatically after every n ingested tuples. Requires WithBackend;
// 0 (the default) leaves checkpointing purely manual.
func WithCheckpointEvery(n int64) Option {
	return func(sc *stageConfig) { sc.cfg.CheckpointEvery = n }
}

// WithCheckpointKeep retains the newest k committed checkpoint
// generations in the backend instead of only the latest, enabling
// last-good fallback: when the newest generation is corrupt, Restore
// falls back to the next retained one and replay covers the gap. The
// replay log is trimmed only to the oldest retained generation's cut.
// 0 (the default) means storage.DefaultKeep (2); values below 1 clamp
// to 1.
func WithCheckpointKeep(k int) Option {
	return func(sc *stageConfig) { sc.cfg.CheckpointKeep = k }
}

// WithCheckpointCompactEvery bounds the incremental-checkpoint chain:
// after n consecutive snapshots the next one is forced full, folding
// the base+delta chain back to a single base. Between compactions each
// checkpoint ships only arena blocks (and spill suffix) appended since
// the previous committed one — the payload scales with the delta, not
// the stored state. 0 (the default) means
// core.DefaultCheckpointCompactEvery (8); 1 disables incremental
// checkpoints (every snapshot full).
func WithCheckpointCompactEvery(n int) Option {
	return func(sc *stageConfig) { sc.cfg.CheckpointCompactEvery = n }
}

// CheckpointPolicy selects the operator's reaction to a checkpoint
// commit that fails after the backend's retries: Degrade or FailStop.
type CheckpointPolicy = core.CheckpointPolicy

const (
	// Degrade (the default) keeps the operator joining through backend
	// outages: a failed checkpoint logs, bumps the CheckpointFailures
	// metric, and leaves the replay log untrimmed, so the previous
	// checkpoint stays fully recoverable; the next boundary retries.
	Degrade = core.CkptDegrade
	// FailStop cancels the operator on the first failed checkpoint
	// commit; the wrapped backend error surfaces from Finish (and from
	// the blocked Checkpoint call).
	FailStop = core.CkptFailStop
)

// WithCheckpointPolicy selects Degrade or FailStop behavior for failed
// checkpoint commits.
func WithCheckpointPolicy(p CheckpointPolicy) Option {
	return func(sc *stageConfig) { sc.cfg.CheckpointPolicy = p }
}

// WithLatency attaches a latency sampler to the stage.
func WithLatency(l *LatencySampler) Option { return func(sc *stageConfig) { sc.cfg.Latency = l } }

// WithSourceLanes shards the ingest front end for concurrent feeders:
// each of the n lanes owns a private sequence-number window (granted
// from the global counter in coarse blocks) and a home reshuffler
// ring, so n goroutines calling Send/SendBatch do not contend on one
// atomic counter and one deal path. n <= 0 resolves to
// runtime.GOMAXPROCS(0). With one lane (the default) the stage keeps
// the legacy deterministic front end: dense sequence numbers and the
// pseudo-random deal. The grouped engine ignores it — cross-group
// consistency needs the single shared arrival order.
func WithSourceLanes(n int) Option {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return func(sc *stageConfig) { sc.cfg.SourceLanes = n }
}

// WithEmitWorkers moves sink invocation off the joiner tasks onto n
// dedicated emit workers: each joiner accumulates results in a pooled
// pair buffer and hands the full buffer over by pointer (joiner id mod
// n picks the home worker, mirroring the source-lane affinity of
// WithSourceLanes; non-sharded sinks spill to other workers under
// pressure), then returns to probing. n <= 0 resolves to
// runtime.GOMAXPROCS(0). Without this option sinks run inline on the
// joiner tasks. The result multiset is identical either way; with a
// Sharded sink each shard stays pinned to its home worker, so the
// per-shard serialization contract survives the handoff.
func WithEmitWorkers(n int) Option {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return func(sc *stageConfig) { sc.cfg.EmitWorkers = n }
}

// WithElastic enables 1-to-4 elastic expansion once any joiner stores
// more than maxPerJoiner tuples, capped at maxJoiners total (0: no
// cap).
func WithElastic(maxPerJoiner int64, maxJoiners int) Option {
	return func(sc *stageConfig) {
		sc.cfg.MaxTuplesPerJoiner = maxPerJoiner
		sc.cfg.MaxJoiners = maxJoiners
	}
}

// WithPadDummies enables physical dummy-tuple padding, keeping the
// cardinality ratio within J (§4.2.2). Only the single-grid engine
// honors it; a grouped stage (non-power-of-two joiners) ignores it.
func WithPadDummies() Option { return func(sc *stageConfig) { sc.cfg.PadDummies = true } }

// Equi returns an equality predicate on Tuple.Key — the pipeline-API
// shorthand for EquiJoin(name, nil).
func Equi(name string) Predicate { return join.EquiJoin(name, nil) }

// Band returns a |r.Key - s.Key| <= width predicate — the shorthand
// for BandJoin(name, width, nil).
func Band(name string, width int64) Predicate { return join.BandJoin(name, width, nil) }

// Theta returns an arbitrary join predicate — the shorthand for
// ThetaJoin.
func Theta(name string, pred func(r, s Tuple) bool) Predicate { return join.ThetaJoin(name, pred) }

// NewEngine builds a standalone engine from options, without a
// pipeline: the operator implementation is chosen from the joiner
// count (single grid for powers of two, group decomposition
// otherwise), and sink wires the result path (nil counts results
// internally). Drive it with the Engine lifecycle: Start or
// StartContext, Send/SendBatch, Finish.
func NewEngine(pred Predicate, sink Sink, opts ...Option) Engine {
	sc := newStageConfig(nil, opts)
	return sc.build(pred, sink)
}

// build constructs the stage's engine. The grouped operator exposes a
// narrower tuning surface; options it cannot honor fall back to its
// defaults: batch sizes and linger, the initial mapping, elasticity,
// dummy padding (WithPadDummies), and source lanes (WithSourceLanes —
// cross-group consistency needs one shared arrival order).
func (sc stageConfig) build(pred Predicate, sink Sink) Engine {
	var emitBatch EmitBatch
	var emitShard ShardedEmitBatch
	if sink != nil {
		// A sharded sink resolves to the engine's sharded hook (the
		// assertion keeps Sink sealed); everything else to the
		// vectorized batch hook.
		if sh, ok := sink.(interface{ sinkSharded() ShardedEmitBatch }); ok {
			emitShard = sh.sinkSharded()
		} else {
			emitBatch = sink.sinkBatch()
		}
	}
	if sc.grouped || !isPow2(sc.cfg.J) {
		if len(sc.cfg.Workers) > 0 {
			// Like WithBackend below: silently dropping WithWorkers would
			// run everything locally, not just fall back on tuning.
			panic("squall: WithWorkers requires the single-grid operator (power-of-two joiners, no WithGrouped)")
		}
		if sc.cfg.Backend != nil {
			// Unlike the perf options above, silently dropping WithBackend
			// would change durability semantics, not just tuning — refuse.
			panic("squall: WithBackend requires the single-grid operator (power-of-two joiners, no WithGrouped)")
		}
		return core.NewGrouped(core.GroupedConfig{
			J:           sc.cfg.J,
			Pred:        pred,
			Adaptive:    sc.cfg.Adaptive,
			Warmup:      sc.cfg.Warmup,
			Epsilon:     sc.cfg.Epsilon,
			Storage:     sc.cfg.Storage,
			EmitBatch:   emitBatch,
			EmitShard:   emitShard,
			EmitWorkers: sc.cfg.EmitWorkers,
			Latency:     sc.cfg.Latency,
			Seed:        sc.cfg.Seed,
		})
	}
	cfg := sc.cfg
	cfg.Pred = pred
	cfg.EmitBatch = emitBatch
	cfg.EmitShard = emitShard
	return core.NewOperator(cfg)
}

// batchSize returns the stage's effective data-plane batch size, which
// also sizes inter-stage forwarding buffers.
func (sc stageConfig) batchSize() int {
	if sc.cfg.BatchSize > 0 {
		return sc.cfg.BatchSize
	}
	return core.DefaultBatchSize
}

func isPow2(j int) bool { return j > 0 && j&(j-1) == 0 }
