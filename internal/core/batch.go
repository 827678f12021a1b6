package core

import "sync"

// The data plane ships messages in batches: a reshuffler accumulates a
// per-destination []message buffer and pushes the whole slice in one
// channel operation, so per-tuple synchronization cost is amortized
// over BatchSize tuples. Buffers cycle through a slicePool — the
// consuming joiner returns each batch after processing it — so steady
// state runs without per-tuple (or per-batch) allocations.
//
// A batch flushes when it is full, when the reshuffler must emit a
// protocol barrier (epoch signal or EOS: the flush is what preserves
// the per-link FIFO separation of old-epoch from new-epoch tuples),
// when the reshuffler goes idle, and when the linger budget expires.

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

// batchPool recycles batch buffers between reshufflers (producers) and
// joiners (consumers).
var batchPool slicePool[message]

// getBatch returns an empty buffer with at least capHint capacity.
func getBatch(capHint int) []message { return batchPool.get(capHint) }

// putBatch recycles a consumed batch. Elements are cleared first so
// recycled buffers do not pin tuple payloads.
func putBatch(b []message) {
	clear(b)
	batchPool.put(b)
}

// The ingest front end uses the same discipline one hop earlier:
// Send/SendBatch wrap tuples in pooled []sourceItem envelopes, the
// source rings carry whole envelopes, and the consuming reshuffler
// returns each envelope after copying it out — so the producer-side
// entry point also runs without per-tuple (or per-envelope, in steady
// state) allocations.

// itemPool recycles source envelopes between senders (producers) and
// reshufflers (consumers).
var itemPool slicePool[sourceItem]

// getItems returns an empty source envelope with at least capHint
// capacity.
func getItems(capHint int) []sourceItem { return itemPool.get(capHint) }

// putItems recycles a consumed source envelope, clearing it first so
// recycled buffers do not pin tuple payloads.
func putItems(b []sourceItem) {
	clear(b)
	itemPool.put(b)
}
