package squall

import (
	"time"

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

// WithJoiners sets the machine (joiner-task) count. A grid stage runs
// the largest power of two ≤ j (WithJoiners(6) builds a 4-joiner grid;
// Metrics().NumJoiners() reports the count that runs); NewSHJ runs
// exactly j. Every option composes with every count. Against the
// paper's decomposition of j into power-of-two groups (§4.2.2), the
// grid receives no more input per joiner, but each joiner stores up to
// j/j′ < 2 times as much, which matters only under a per-joiner
// StorageConfig.CapBytes.
func WithJoiners(j int) Option { return func(sc *stageConfig) { sc.cfg.J = j } }

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

// WithBatchSize sets the data-plane envelope capacity in tuples of one
// relation (default DefaultBatchSize; 1 ships every routed tuple
// alone). Chained stages also size their inter-stage forwarding
// buffers with it.
func WithBatchSize(n int) Option { return func(sc *stageConfig) { sc.cfg.BatchSize = n } }

// WithBatchLinger bounds how long a routed tuple may wait in a partial
// envelope (default DefaultBatchLinger; negative disables the timer).
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
// The first checkpoint is a full snapshot; each later one ships only
// the state stored since the previous commit, and a full one is taken
// again only once the chain of deltas holds more bytes than two full
// snapshots would. Checkpoint bytes therefore stay within twice the
// delta bytes, and a restore reads at most two full snapshots' worth
// plus one delta. There is no knob for it. NewSHJ rejects it.
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
// cardinality ratio within J (§4.2.2). NewSHJ ignores it.
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
// pipeline: an Operator on its grid route, whose joiner count is the
// largest power of two ≤ WithJoiners' count, with sink wiring the
// result path (nil counts results internally). Drive it with the Engine
// lifecycle: Start or StartContext, Send/SendBatch, Finish.
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
// an Operator on its hash route, which sends each tuple to the one
// joiner its key hashes to instead of a row or column of a grid.
// WithJoiners sets its worker count (any positive count) and sink its
// result path (a Sharded sink's shard is the worker index); storage,
// batching, linger and latency options apply as to any stage. The
// predicate must be an equi-join. Options only the grid route
// implements — WithBackend and WithWorkers — are rejected; the grid's
// shape and adaptation options (WithAdaptive, WithInitialMapping,
// WithElastic, WithPadDummies) are ignored.
func NewSHJ(pred Predicate, sink Sink, opts ...Option) (*Operator, error) {
	return core.NewSHJ(newStageConfig(nil, opts).coreConfig(pred, sink))
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

// build constructs the stage's grid operator, or reports why it
// cannot.
func (sc stageConfig) build(pred Predicate, sink Sink) (Engine, error) {
	op, err := core.NewOperator(sc.coreConfig(pred, sink))
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
