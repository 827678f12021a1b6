package squall

import (
	"sync"
	"sync/atomic"
)

// Sink is the unified result path of a pipeline stage: one abstraction
// over the per-pair and per-run emit hooks, so a stage is always
// terminated the same way regardless of how the consumer wants its
// results. Build one with Each (per-pair callback), Batches (per-run
// callback, the vectorized form), or Counter (count only).
//
// Sinks are invoked concurrently by the stage's joiner tasks and must
// be safe for concurrent use; the callbacks must not block. A slice
// passed to a Batches sink is only valid for the duration of the call
// — the emitter reuses the backing buffer.
type Sink interface {
	// sinkBatch resolves the sink to the engine's vectorized emit
	// hook. The interface is sealed: the pipeline owns the adaptation
	// from sinks to engine hooks.
	sinkBatch() EmitBatch
}

// eachSink adapts a per-pair function.
type eachSink func(Pair)

func (s eachSink) sinkBatch() EmitBatch {
	return func(ps []Pair) {
		for i := range ps {
			s(ps[i])
		}
	}
}

// Each returns a sink calling f once per result pair. f runs inline on
// joiner tasks: it must be cheap, non-blocking, and safe for
// concurrent use.
func Each(f func(Pair)) Sink { return eachSink(f) }

// batchSink adapts a per-run function.
type batchSink func([]Pair)

func (s batchSink) sinkBatch() EmitBatch { return EmitBatch(s) }

// Batches returns a sink calling f once per flushed run of results —
// the vectorized form, amortizing the consumer's per-result work the
// way the batched message plane amortizes per-tuple synchronization.
// The slice is only valid during the call; copy pairs that must be
// retained.
func Batches(f func([]Pair)) Sink { return batchSink(f) }

// shardFunc adapts a per-shard function.
type shardFunc func(shard int, ps []Pair)

// sinkBatch is the fallback for an engine without a sharded emit hook:
// one mutex serializes everything onto shard 0 — the contract (calls
// within a shard serialized) still holds, degenerately. The core
// engines all expose the sharded hook, so this path is not normally
// taken.
func (s shardFunc) sinkBatch() EmitBatch {
	var mu sync.Mutex
	return func(ps []Pair) {
		mu.Lock()
		s(0, ps)
		mu.Unlock()
	}
}

// sinkSharded resolves the sink to the engine's sharded emit hook; the
// pipeline detects it via an unexported interface assertion, keeping
// Sink sealed.
func (s shardFunc) sinkSharded() ShardedEmitBatch { return ShardedEmitBatch(s) }

// Sharded returns a sink calling f once per flushed run of results,
// tagged with the emitting shard (the joiner id — elastic expansion
// mints new shard ids beyond the initial joiner count). Calls within one shard never
// overlap — each shard is one joiner task delivering its own results;
// different shards run concurrently with no cross-shard
// ordering guarantee. This is the sink form that lets J joiners emit
// without funneling through one shared mutex: give each shard its own
// accumulator (padded to a cache line) and merge on read. The slice is
// only valid during the call; the result multiset is exactly Each's
// and Batches's — only the delivery order across shards differs.
func Sharded(f func(shard int, ps []Pair)) Sink { return shardFunc(f) }

// counterSink counts results.
type counterSink struct{ n *atomic.Int64 }

func (s counterSink) sinkBatch() EmitBatch {
	return func(ps []Pair) { s.n.Add(int64(len(ps))) }
}

// counterCell isolates the counter on its own cache line: a Counter is
// hammered concurrently by every joiner, and an
// unpadded heap cell can share its line with whatever the allocator
// placed next to it — turning an unrelated reader into a false-sharing
// victim.
type counterCell struct {
	_ [64]byte
	n atomic.Int64
	_ [56]byte
}

// Counter returns a sink that only counts results, plus the counter —
// the cheapest terminal when the output volume, not its content, is
// the quantity of interest.
func Counter() (Sink, *atomic.Int64) {
	c := new(counterCell)
	return counterSink{n: &c.n}, &c.n
}
