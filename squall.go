// Package squall is a from-scratch Go reproduction of "Scalable and
// Adaptive Online Joins" (Elseidy, Elguindy, Vitorovic, Koch — VLDB
// 2014): a parallel, online, intra-adaptive dataflow operator for
// theta-joins over unbounded full-history streams.
//
// The operator models the join R ⋈ S as a matrix divided into a grid
// of n x m rectangles assigned to J = n*m joiner tasks. Incoming
// tuples are routed content-insensitively (random row for R, random
// column for S), which makes the operator immune to key skew; a
// controller continuously re-optimizes the (n,m) shape as
// cardinalities evolve (1.25-competitive on per-machine load, Thm
// 4.1), relocates state with a locality-aware pairwise exchange
// (Fig. 3), and keeps joining new tuples during relocation via the
// eventually-consistent epoch protocol (Alg. 3, Thm 4.5).
//
// The public surface is the composable pipeline API: stages built
// from functional options, terminated by Sinks, chained into
// multi-way plans, and driven through one context-aware lifecycle.
//
// Quickstart:
//
//	sink, pairs := squall.Counter()
//	p := squall.NewPipeline(squall.WithSeed(42))
//	orders := p.Join(squall.Equi("orders"),
//		squall.WithJoiners(16),
//		squall.WithAdaptive(),
//	).To(sink)
//	if err := p.Run(ctx); err != nil { ... }
//	orders.Send(squall.Tuple{Rel: squall.SideR, Key: 42})
//	orders.Send(squall.Tuple{Rel: squall.SideS, Key: 42}) // matches
//	if err := p.Wait(); err != nil { ... }
//	fmt.Println(pairs.Load())
//
// Cancelling ctx stops every joiner and reshuffler task of every
// stage; in-flight sends return the cancellation error and Wait
// returns it. Task panics and errors cancel their stage and surface
// from Wait the same way instead of being swallowed.
//
// Multi-way plans chain stages: Stream.Join re-keys each result pair
// into a tuple of the next stage (a user ReKey function picks the
// next join attribute) and forwards it through the batched ingest
// front end — chaining never touches a per-tuple path. The other side
// of the downstream stage is fed externally:
//
//	rs := p.Join(squall.Equi("r-s"))
//	rst := rs.Join(squall.Equi("rs-t"), func(pr squall.Pair) squall.Tuple {
//		return squall.Tuple{Rel: squall.SideR, Key: pr.S.Aux}
//	}).To(sink)
//	// feed R/S into rs, T into rst
//
// Below the pipeline sit the engines, all implementing Engine and all
// drivable standalone (NewEngine, or the legacy constructors):
//
//   - Operator / Config — the concurrent grid operator: one goroutine
//     per joiner and reshuffler task, with a batched message plane as
//     the interconnect (per-destination tuple batches, pool-recycled
//     envelopes; see Config.BatchSize and Config.BatchLinger). The
//     migration plane batches relocated state the same way (see
//     Config.MigBatchSize), and both ends of the operator are batched
//     too: SendBatch ingests runs of tuples in pooled envelopes with
//     one sequence-number fetch, and Config.EmitBatch receives join
//     results a run at a time with per-flush accounting.
//   - Grouped / GroupedConfig — the generalization to machine counts
//     that are not powers of two (§4.2.2); the pipeline selects it
//     automatically for non-power-of-two WithJoiners counts.
//   - SHJ — the content-sensitive parallel symmetric-hash-join
//     baseline the evaluation compares against.
//   - Sim / SimConfig — a deterministic single-threaded replay used to
//     regenerate the paper's tables and figures bit-identically (not
//     an Engine: it is synchronous by design).
//
// The raw constructors (NewOperator, NewGrouped) and the Config
// structs remain as compatibility shims for one release; see the
// MIGRATION section of the README for the Config-field-to-option
// mapping.
package squall

import (
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/storage"
)

// Tuple is the unit of data flowing through the operator; set Rel, Key
// (the join attribute) and optionally Aux (secondary attribute for
// residual predicates) and Size (bytes, for load accounting).
type Tuple = join.Tuple

// Pair is one join result.
type Pair = join.Pair

// Emit receives join results; implementations must not block.
type Emit = join.Emit

// EmitBatch receives join results a run at a time (Config.EmitBatch);
// the slice is only valid for the duration of the call.
type EmitBatch = join.EmitBatch

// ShardedEmitBatch receives join results a run at a time, tagged with
// the emitting shard (Config.EmitShard; see the Sharded sink): calls
// within one shard are serialized, different shards run concurrently,
// cross-shard order is unspecified.
type ShardedEmitBatch = join.ShardedEmitBatch

// Predicate is a join condition (equi, band or theta).
type Predicate = join.Predicate

// PredicateKind classifies a predicate's structure; engines use it to
// pick the local algorithm (hash, ordered, or scan index), and SHJ
// accepts only KindEqui.
type PredicateKind = join.Kind

// The predicate kinds.
const (
	KindEqui  = join.Equi
	KindBand  = join.Band
	KindTheta = join.Theta
)

// Side identifies a join input.
type Side = matrix.Side

// SideR and SideS are the two join inputs (rows and columns of the
// join matrix).
const (
	SideR = matrix.SideR
	SideS = matrix.SideS
)

// EquiJoin returns an equality predicate on Tuple.Key with an optional
// residual filter.
func EquiJoin(name string, residual func(r, s Tuple) bool) Predicate {
	return join.EquiJoin(name, residual)
}

// BandJoin returns a |r.Key - s.Key| <= width predicate with an
// optional residual filter.
func BandJoin(name string, width int64, residual func(r, s Tuple) bool) Predicate {
	return join.BandJoin(name, width, residual)
}

// ThetaJoin returns an arbitrary join predicate; joiners fall back to
// exhaustive per-partition scans, which the grid layout keeps balanced.
func ThetaJoin(name string, pred func(r, s Tuple) bool) Predicate {
	return join.ThetaJoin(name, pred)
}

// Mapping is an (n,m) grid mapping of the join matrix.
type Mapping = matrix.Mapping

// OptimalMapping returns the ILF-minimizing mapping of J machines for
// relation volumes r and s. J must be a power of two.
func OptimalMapping(j int, r, s float64) Mapping { return matrix.Optimal(j, r, s) }

// SquareMapping returns the balanced (√J,√J) mapping — the best static
// guess absent cardinality knowledge, and the paper's initialization.
func SquareMapping(j int) Mapping { return matrix.Square(j) }

// Engine is the uniform driving surface over every operator in the
// package: Operator, Grouped, and SHJ all implement it, so sinks,
// metrics collection, and the bench/experiment harnesses drive any of
// them identically. The pipeline layer builds engines from options;
// NewEngine builds a standalone one.
type Engine = core.Engine

// Config configures an Operator. It remains as the compatibility shim
// for direct NewOperator construction; new code should prefer the
// pipeline/options API (NewPipeline, NewEngine). See core.Config for
// field docs.
type Config = core.Config

// DefaultBatchSize is the data-plane batch envelope capacity used when
// Config.BatchSize is 0; BatchSize 1 degenerates to per-message sends.
const DefaultBatchSize = core.DefaultBatchSize

// DefaultBatchLinger is the partial-batch flush budget used when
// Config.BatchLinger is 0.
const DefaultBatchLinger = core.DefaultBatchLinger

// Operator is the adaptive (or static) parallel online join operator.
type Operator = core.Operator

// ErrFinished is returned by Send/SendBatch once Finish has closed the
// operator's input.
var ErrFinished = core.ErrFinished

// NewOperator builds an operator; call Start (or StartContext), then
// Send (or SendBatch) tuples, then Finish. It remains as a
// compatibility shim: new code should construct engines through
// NewPipeline or NewEngine options.
func NewOperator(cfg Config) *Operator { return core.NewOperator(cfg) }

// GroupedConfig configures a Grouped operator.
type GroupedConfig = core.GroupedConfig

// Grouped generalizes the operator to arbitrary machine counts by
// decomposing J into power-of-two groups (§4.2.2).
type Grouped = core.Grouped

// NewGrouped builds a grouped operator. It remains as a compatibility
// shim: new code should pass a non-power-of-two WithJoiners count (or
// WithGrouped) to NewPipeline/NewEngine instead.
func NewGrouped(cfg GroupedConfig) *Grouped { return core.NewGrouped(cfg) }

// SimConfig configures a deterministic simulation run.
type SimConfig = core.SimConfig

// Sim is the deterministic single-threaded replay of the operator used
// by the experiment harness.
type Sim = core.Sim

// NewSim builds a simulator.
func NewSim(cfg SimConfig) *Sim { return core.NewSim(cfg) }

// SimResult summarizes a finished simulation.
type SimResult = core.Result

// SHJConfig configures the parallel symmetric hash join baseline.
type SHJConfig = baseline.SHJConfig

// SHJ is the content-sensitive baseline operator (equi-joins only).
type SHJ = baseline.SHJ

// NewSHJ builds the baseline operator.
func NewSHJ(cfg SHJConfig) *SHJ { return baseline.NewSHJ(cfg) }

// StorageConfig bounds per-joiner memory and configures the disk-spill
// tier (the BerkeleyDB-substitute storage engine).
type StorageConfig = storage.Config

// Ripple is a local online ripple join [21] with running join-size
// estimation — one of the non-blocking local algorithms a joiner may
// adopt (§3.2).
type Ripple = join.Ripple

// NewRipple returns an empty ripple join.
func NewRipple(p Predicate) *Ripple { return join.NewRipple(p) }

// PMJ is a progressive-merge-join-style local algorithm [15]:
// sort-based, non-blocking, natural for band and inequality joins.
type PMJ = join.PMJ

// NewPMJ returns a PMJ with the given per-side run budget.
func NewPMJ(p Predicate, runBudget int) *PMJ { return join.NewPMJ(p, runBudget) }

// RangeBand is the content-sensitive band-join prototype of the
// paper's §6 future work: it materializes only the join-matrix cells
// the band predicate can satisfy. Content sensitivity trades away the
// grid operator's skew immunity — see the package tests.
type RangeBand = baseline.RangeBand

// RangeBandConfig configures a RangeBand.
type RangeBandConfig = baseline.RangeBandConfig

// NewRangeBand builds the prototype; call Start before Send.
func NewRangeBand(cfg RangeBandConfig) *RangeBand { return baseline.NewRangeBand(cfg) }

// OperatorMetrics exposes the per-joiner and operator-level counters.
type OperatorMetrics = metrics.Operator

// LatencySampler samples per-tuple latencies as defined in §5.
type LatencySampler = metrics.LatencySampler

// NewLatencySampler samples every rate-th tuple.
func NewLatencySampler(rate uint64) *LatencySampler { return metrics.NewLatencySampler(rate) }

// CostModel converts joiner counters into simulated execution time.
type CostModel = metrics.CostModel

// DefaultCostModel returns the calibration used by the experiment
// harness, with the given per-joiner memory cap in tuples (0: no cap).
func DefaultCostModel(memCap int64) CostModel { return metrics.DefaultCostModel(memCap) }
