// Package join provides the tuple model, join predicates, and the local
// non-blocking join algorithms that each joiner task runs on its
// assigned partition pair (§3.2 of Elseidy et al., VLDB 2014). Any
// non-blocking local algorithm can be plugged into a joiner; this
// package supplies the three the evaluation needs: a symmetric hash
// index for equi-joins, an ordered index for band joins, and a scan
// index for arbitrary theta predicates.
package join

import (
	"fmt"

	"repro/internal/matrix"
)

// Tuple is the unit of data flowing through the operator. Queries
// pre-extract the join attribute into Key (hash key for equi-joins,
// band attribute for band joins) and one secondary attribute into Aux
// so residual predicates can run without decoding payloads on the hot
// path.
//
// Fields are ordered by descending alignment so the struct packs into
// 64 bytes — one cache line, with the three small fields sharing the
// last word. Every envelope body slot, source item, control message and
// result Pair embeds Tuples, so the layout is pinned by message_test.go
// in internal/core; no codec depends on it (every encoder writes fields
// explicitly).
type Tuple struct {
	// Key is the primary join attribute.
	Key int64
	// Aux carries a secondary attribute for residual predicates.
	Aux int64
	// U is the routing randomness drawn once at ingestion. The tuple's
	// partition under any (n,m)-mapping is a bit prefix of U, which is
	// what makes migration keep/discard/exchange sets deterministic.
	U uint64
	// Seq is a monotone ingestion sequence number (used for latency
	// sampling, replay routing and the restored joiners' duplicate
	// filter).
	Seq uint64
	// Payload optionally carries the encoded source row.
	Payload []byte
	// Size is the tuple's size in bytes for ILF and storage accounting.
	// Payload need not be materialized for Size to be meaningful.
	Size int32
	// Rel is the side of the join matrix the tuple belongs to.
	Rel matrix.Side
	// Dummy marks padding tuples injected to keep the cardinality
	// ratio within J (§4.2.2); they never match any predicate.
	Dummy bool
}

func (t Tuple) String() string {
	return fmt.Sprintf("%v{key=%d aux=%d u=%x}", t.Rel, t.Key, t.Aux, t.U)
}

// Bytes returns the accounting size of the tuple: Size if set,
// otherwise the length of the payload, with a floor of 1 so that
// tuple-count and byte-volume metrics never silently vanish.
func (t Tuple) Bytes() int64 {
	if t.Size > 0 {
		return int64(t.Size)
	}
	if len(t.Payload) > 0 {
		return int64(len(t.Payload))
	}
	return 1
}

// metaWord packs the tuple's small scalar fields — Size in the low 32
// bits, Rel at bit 32, Dummy at bit 33 — into the columnar arena's one
// meta word, so an insert appends five dense machine words instead of
// a 64-byte struct.
func (t Tuple) metaWord() uint64 {
	m := uint64(uint32(t.Size)) | uint64(t.Rel&1)<<32
	if t.Dummy {
		m |= 1 << 33
	}
	return m
}

// setMeta is the inverse of metaWord: it unpacks Size, Rel and Dummy
// from a meta word into t.
func (t *Tuple) setMeta(m uint64) {
	t.Rel = matrix.Side(m >> 32 & 1)
	t.Size = int32(uint32(m))
	t.Dummy = metaDummy(m)
}

// metaBytes is Tuple.Bytes for a stored row, read from its packed meta
// word and payload without materializing the tuple.
func metaBytes(m uint64, payload []byte) int64 {
	if size := int32(uint32(m)); size > 0 {
		return int64(size)
	}
	if len(payload) > 0 {
		return int64(len(payload))
	}
	return 1
}

// metaDummy reports the Dummy bit of a packed meta word without
// materializing the tuple.
func metaDummy(m uint64) bool { return m&(1<<33) != 0 }

// Pair is one join result: the matched R and S tuples.
type Pair struct {
	R, S Tuple
}

// EmitBatch receives a run of join results in one call, letting sinks
// amortize their own per-result work the way the batched message plane
// amortizes per-tuple synchronization. Implementations must be cheap;
// joiners call it inline. The slice is only valid for the duration of
// the call — the emitter reuses the backing buffer; sinks that retain
// results must copy them.
type EmitBatch func([]Pair)

// ShardedEmitBatch receives a run of join results tagged with the
// emitting shard (the joiner id). Calls within one shard never overlap, because each
// shard is one joiner task delivering its own results; different shards
// run concurrently with no cross-shard order — the contract that lets J
// joiners deliver results without funneling through one sink mutex. The
// slice is only valid for the duration of the call.
type ShardedEmitBatch func(shard int, ps []Pair)
