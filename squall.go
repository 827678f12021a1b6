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
// Below the pipeline sits one engine, the Operator, on one of two
// routes; it implements Engine and is drivable standalone. Options are
// the one way to configure it: NewEngine builds the grid operator (on
// the largest power of two ≤ the WithJoiners count), NewSHJ the
// operator on its hash route, and Restore an operator from a
// checkpoint. A misconfiguration is an error
// from Pipeline.Run, NewSHJ and Restore, reported before any task
// starts; NewEngine, which has no error return, panics with that error.
//
//   - Operator — the concurrent operator: one goroutine per joiner
//     and reshuffler task, with a batched message plane as the
//     interconnect (one pool-recycled envelope per grid row or column,
//     shared by its joiners; see WithBatchSize and WithBatchLinger). The migration
//     plane ships relocated state as columnar arena blocks, the same
//     bytes in-process and over TCP, and both ends of the operator are
//     batched too: SendBatch ingests runs of tuples in pooled envelopes
//     with one sequence-number fetch, and sinks receive join results a
//     run at a time with per-flush accounting. Its reshufflers route
//     on the paper's content-insensitive grid, or — built by NewSHJ —
//     on the join key's hash: the parallel symmetric hash join (SHJ)
//     the evaluation compares against, which sends each tuple to one
//     joiner.
//   - Sim / SimConfig — a deterministic single-threaded replay used to
//     regenerate the paper's tables and figures bit-identically (not
//     an Engine: it is synchronous by design).
package squall

import (
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

// EmitBatch receives join results a run at a time (the Batches sink);
// the slice is only valid for the duration of the call.
type EmitBatch = join.EmitBatch

// ShardedEmitBatch receives join results a run at a time, tagged with
// the emitting shard (the Sharded sink): calls
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

// Engine is the driving surface of the Operator on either route, so
// sinks, metrics collection, and the bench/experiment harnesses drive
// either identically. The pipeline layer builds engines from options;
// NewEngine builds a standalone one.
type Engine = core.Engine

// DefaultBatchSize is the data-plane batch envelope capacity used
// without WithBatchSize: a block's rows (512), so an envelope is one
// window of its grid line's block; a batch size of 1 degenerates to
// per-message sends.
const DefaultBatchSize = core.DefaultBatchSize

// DefaultBatchLinger is the partial-batch flush budget used without
// WithBatchLinger.
const DefaultBatchLinger = core.DefaultBatchLinger

// Operator is the adaptive (or static) parallel online join operator.
type Operator = core.Operator

// ErrFinished is returned by Send/SendBatch once Finish has closed the
// operator's input.
var ErrFinished = core.ErrFinished

// SimConfig configures a deterministic simulation run.
type SimConfig = core.SimConfig

// Sim is the deterministic single-threaded replay of the operator used
// by the experiment harness.
type Sim = core.Sim

// NewSim builds a simulator.
func NewSim(cfg SimConfig) *Sim { return core.NewSim(cfg) }

// SimResult summarizes a finished simulation.
type SimResult = core.Result

// StorageConfig bounds per-joiner memory and configures the disk-spill
// tier (the BerkeleyDB-substitute storage engine).
type StorageConfig = storage.Config

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
