package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/join"
)

// The data plane ships envelopes: a reshuffler keeps one pending
// envelope per grid row (R tuples) and one per grid column (S tuples),
// and a flush pushes the same envelope pointer onto the data link of
// every joiner in that row or column — the grid's replication (§3) is
// sharing, not copying. An envelope's body is a run of tuples of one
// relation sharing the header's epoch, so each data envelope is exactly
// one joiner run. For in-process joiners the line's writer also wrote
// the body's columns once into its blocks, filling the open block
// before it opens the next, and the envelope names those rows (win and
// rest): the joiners store the run as views of them instead of copying
// it, so a replicated tuple is stored once per process. An envelope
// holds up to a block's rows (DefaultBatchSize), so on a busy line it
// is one window, or two that meet at a block boundary.
// Envelopes recycle through a pool: the flush sets the reference count
// to the fan-out and the last destination to release the envelope
// returns it, so steady state runs without per-tuple (or per-envelope)
// allocations.
//
// A data envelope flushes when it is full, when the reshuffler must
// emit a protocol barrier (epoch signal, checkpoint marker or EOS: the
// flush is what preserves the per-link FIFO separation of old-epoch
// from new-epoch tuples), when the reshuffler goes idle, and when the
// linger budget expires. Barriers travel alone, in header-only
// envelopes on the same links.

// envelope is one immutable, reference-counted data-plane hand-off
// from a reshuffler to one or more joiners. Once shipped nobody writes
// it until the last release returns it to the pool.
type envelope struct {
	// hdr is the header. A data envelope has kind kTuple and carries the
	// sender and epoch tag of every tuple in the body; a
	// control envelope's header is the control message itself (epoch
	// signal, checkpoint marker or EOS) and its body is empty.
	hdr message
	// tuples is the body: tuples of one relation in routing order.
	tuples []join.Tuple
	// bytes is the body's summed Tuple.Bytes, the joiners' input-volume
	// accounting taken once per envelope instead of once per destination.
	bytes int64
	// win names the rows of the line's block the body was written into
	// (row i holding tuples[i]) — on a band line, the body's positions
	// in the line's tree (join.LineTree.Append) — or nothing (the zero
	// Window) when the line writes neither: every joiner behind a link,
	// a band predicate past the first epoch or budgeted stores. rest
	// names the rows of a fresh block that hold the body's tail the open
	// block could not take (row i holding tuples[win.Len()+i]), else
	// nothing (join.BlockWriter.AppendPacked).
	win, rest join.Window
	// derived reports that every body tuple's U is join.UMix(seed, Seq) for
	// the operator seed: the reshuffler derived each one, so the line's
	// writer stores the seed instead of testing every row
	// (join.BlockWriter.AppendPacked).
	derived bool
	// refs counts the destinations that have not released the envelope.
	refs atomic.Int32
	// recycled counts the envelope's returns to the pool. Only the last
	// releaser writes it, so the lifetime tests can read it to tell one
	// return from none or several.
	recycled uint32
}

// envPool recycles envelopes between reshufflers (producers) and
// joiners (consumers). It holds pointers, so a put boxes nothing.
var envPool = sync.Pool{New: func() any { return new(envelope) }}

// getEnvelope returns an empty envelope whose body holds at least
// capHint tuples without growing.
func getEnvelope(capHint int) *envelope {
	e := envPool.Get().(*envelope)
	if cap(e.tuples) < capHint {
		e.tuples = make([]join.Tuple, 0, capHint)
	}
	return e
}

// release drops one destination's reference; the last one clears the
// envelope, so a pooled body pins no payloads, and returns it to the
// pool.
func (e *envelope) release() {
	if e.refs.Add(-1) != 0 {
		return
	}
	clear(e.tuples)
	e.tuples = e.tuples[:0]
	e.hdr = message{}
	e.bytes = 0
	e.win, e.rest = join.Window{}, join.Window{}
	e.derived = false
	e.recycled++
	envPool.Put(e)
}

// slicePool recycles slice buffers without allocating per round trip.
// A sync.Pool holds interface values, so a slice rides in a *[]T box;
// boxing a fresh &b on every put would move b to the heap, one
// allocation per recycled buffer. Instead get parks the box it emptied
// in a second pool and put refills a parked box, so boxes are
// allocated only while the pools fill.
type slicePool[T any] struct {
	bufs  sync.Pool // *[]T holding a recycled buffer
	boxes sync.Pool // empty *[]T boxes awaiting a put
}

// get returns an empty buffer with at least capHint capacity.
func (p *slicePool[T]) get(capHint int) []T {
	if bp, _ := p.bufs.Get().(*[]T); bp != nil {
		b := *bp
		*bp = nil
		p.boxes.Put(bp)
		if cap(b) >= capHint {
			return b[:0]
		}
	}
	return make([]T, 0, capHint)
}

// put recycles b. It does not clear the elements: callers whose T
// holds pointers clear first so recycled buffers pin nothing.
func (p *slicePool[T]) put(b []T) {
	if cap(b) == 0 {
		return
	}
	bp, _ := p.boxes.Get().(*[]T)
	if bp == nil {
		bp = new([]T)
	}
	*bp = b[:0]
	p.bufs.Put(bp)
}

// The ingest front end uses the same discipline one hop earlier:
// Send/SendBatch wrap tuples in pooled []join.Tuple envelopes, the
// source rings carry whole envelopes, and the consuming reshuffler
// returns each envelope after copying it out — so the producer-side
// entry point also runs without per-tuple (or per-envelope, in steady
// state) allocations.

// itemPool recycles source envelopes between senders (producers) and
// reshufflers (consumers).
var itemPool slicePool[join.Tuple]

// getItems returns an empty source envelope with at least capHint
// capacity.
func getItems(capHint int) []join.Tuple { return itemPool.get(capHint) }

// putItems recycles a consumed source envelope, clearing it first so
// recycled buffers do not pin tuple payloads.
func putItems(b []join.Tuple) {
	clear(b)
	itemPool.put(b)
}
