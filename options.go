package squall

import (
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/join"
)

// Option configures one pipeline stage, or — passed to NewPipeline —
// the defaults every stage of that pipeline inherits. Options are the
// one construction path for engines: Pipeline.Run, NewEngine, NewSHJ
// and Restore all resolve them into one core configuration, validated
// before anything is built.
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

// WithStorage bounds per-joiner memory and configures the disk-spill
// tier.
func WithStorage(cfg StorageConfig) Option { return func(sc *stageConfig) { sc.cfg.Storage = cfg } }

// WithBackend enables barrier checkpointing against the given durable
// store: Operator.Checkpoint (and the WithCheckpointEvery pacer)
// snapshots joiner state, controller mapping, and ingest cursors
// through it, and Restore rebuilds from its latest committed snapshot.
// Only the single-grid operator supports it: with a grouped stage
// (non-power-of-two joiners, or WithGrouped) Run returns an error.
func WithBackend(b Backend) Option { return func(sc *stageConfig) { sc.cfg.Backend = b } }

// WithCheckpointEvery makes a backend-equipped stage checkpoint
// automatically after every n ingested tuples. It requires
// WithBackend, and n must not be negative: otherwise Run returns an
// error. 0 (the default) leaves checkpointing purely manual.
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
//
// NewEngine has no error return: on invalid options it panics with the
// configuration error itself (an error value, the one Pipeline.Run
// returns wrapped with the stage index). Use a pipeline to handle
// misconfiguration as an error.
func NewEngine(pred Predicate, sink Sink, opts ...Option) Engine {
	e, err := newStageConfig(nil, opts).build(pred, sink)
	if err != nil {
		panic(err)
	}
	return e
}

// NewSHJ builds the parallel symmetric hash join baseline from options:
// WithJoiners sets its worker count (any positive count), WithStorage
// its per-worker stores, and sink its result path (a Sharded sink's
// shard is the worker index). The predicate must be an equi-join.
// Options only the grid operator implements — WithBackend and
// WithWorkers — are rejected; the grid's tuning options are ignored.
func NewSHJ(pred Predicate, sink Sink, opts ...Option) (*SHJ, error) {
	return baseline.NewSHJ(newStageConfig(nil, opts).coreConfig(pred, sink))
}

// coreConfig resolves the stage's options, predicate and sink into the
// engine configuration every constructor validates.
func (sc stageConfig) coreConfig(pred Predicate, sink Sink) core.Config {
	cfg := sc.cfg
	cfg.Pred = pred
	if sink != nil {
		// A sharded sink resolves to the engine's sharded hook (the
		// assertion keeps Sink sealed); everything else to the
		// vectorized batch hook.
		if sh, ok := sink.(interface{ sinkSharded() ShardedEmitBatch }); ok {
			cfg.EmitShard = sh.sinkSharded()
		} else {
			cfg.EmitBatch = sink.sinkBatch()
		}
	}
	return cfg
}

// build constructs the stage's engine, or reports why it cannot. The
// grouped operator exposes a narrower tuning surface; options it cannot
// honor fall back to its defaults: batch sizes and linger, the initial
// mapping, elasticity and dummy padding (WithPadDummies). WithBackend
// and WithWorkers change semantics, not tuning, so the grouped operator
// rejects them instead.
func (sc stageConfig) build(pred Predicate, sink Sink) (Engine, error) {
	cfg := sc.coreConfig(pred, sink)
	if sc.grouped || !isPow2(cfg.J) {
		gr, err := core.NewGrouped(cfg)
		if err != nil {
			return nil, err
		}
		return gr, nil
	}
	op, err := core.NewOperator(cfg)
	if err != nil {
		return nil, err
	}
	return op, nil
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
