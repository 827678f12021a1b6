package join

import (
	"unsafe"

	"repro/internal/matrix"
)

// The columnar tuple arena: the storage plane the hash and scan
// indexes store their tuples in (the ordered index keeps its tuples in
// its own key-ordered leaves, btree.go). Tuples are decomposed into
// parallel fixed-size column blocks — Key, Aux, U, Seq, a packed meta
// word (Rel/Dummy/Size), and an out-of-line payload column — instead
// of an array of 64-byte Tuple structs. The layout buys three things on
// the hot path:
//
//   - inserts append only the hot scalar columns (40 bytes across five
//     dense arrays, no payload slice header unless a payload exists),
//   - a block's one pointer (the payload column) leads the struct and
//     the 20 KB of columns behind it are pointer-free, so the garbage
//     collector skips stored state instead of scanning a slice header
//     per tuple, and
//   - batch probes can gather match positions from a directory first
//     and materialize result pairs in a tight second loop, rather than
//     interleaving hash walks with full-tuple copies.
//
// An arena is a list of views: an entry names a block and the rows
// [lo, hi) of it the arena holds. Every block is written once, by a
// BlockWriter, and an arena only ever views the windows writers
// published (shared.go).
//
// Growth appends a fresh block — stored tuples are never relocated —
// and nothing addresses a row by its place in the arena: a hash index
// names rows by the positions of its slot indexes, whose tables name
// the blocks. So another arena's entries can be added as they are at
// migration finalization, whatever fill level either arena ends at.
//
// What one stored tuple costs (see index.go for the hash directory's
// share, and README "Byte budget" for the whole table):
//
//	key, aux, u, seq   4 x 8 B   the tuple itself
//	meta               8 B       Rel (1 bit), Dummy (1 bit), Size (32 bits)
//	payload            0 B       24 B + the bytes once any tuple of the
//	                             block carries one
//	chain              4 B       hash indexes only: the per-key chain,
//	                             held by the store's own slot index
//	                             per replica, or once per line by the
//	                             slot index a segment reads
//	view               16 B      per entry: per window that does not
//	                             extend the previous one
//
// A replica's share of a block's columns is their bytes divided by the
// block's sharers (10 B of the 40 on a (4,4) grid, all 40 for a block
// of the store's own writer).
//
// The five data columns are the 40 B/tuple every snapshot, delta,
// spill record and migration block frame over a link carries; they are
// written once, by a writer. A migration copies rows column by column
// (BlockWriter.copyRow) into blocks that a target in the same process
// adopts as they are, never serialized. The u column is what the
// migration filters read: the τ selection and the Retain discard test
// it alone (dropped, retain) and build no Tuple. The chain column is
// derived state like the directory: it belongs to a SlotIndex, is never
// serialized, and is rebuilt from the key column whenever entries are
// adopted.

// arenaChunk sizes the arena's fixed blocks.
const (
	arenaChunk = 512
	arenaShift = 9 // log2(arenaChunk)
)

// maxSharedEntries bounds the entries the views of other writers'
// windows may add to one arena; past it windows are copied through the
// store's own writer, whose consecutive windows extend one entry per
// block. It bounds a hash store's own slot index with it, which enters
// at most one block per arena entry: an unbatched stream adds an entry
// per tuple, and a position holds the block index in its top 22 bits
// (maxSlotBlocks), which leaves the other half of that space for 2^30
// more tuples.
const maxSharedEntries = 1 << 21

// colChunk is one block of the arena: arenaChunk tuples decomposed
// into parallel columns. Which rows hold tuples is the business of the
// views that reference the block; the block itself has no fill level.
// The payload column is allocated on the first payload-carrying tuple
// written to the block, before its first window is published or never
// (BlockWriter), so no reader ever sees the header change.
type colChunk struct {
	payload [][]byte
	// sharers is the number of arenas the block's writer wrote it for,
	// recorded at creation: the joiners of a slot, or 1 for a store's
	// own writer.
	sharers int32
	key     [arenaChunk]int64
	aux     [arenaChunk]int64
	u       [arenaChunk]uint64
	seq     [arenaChunk]uint64
	meta    [arenaChunk]uint64
}

// Resident sizes behind Index.Footprint: what the allocator hands out
// for one block (the 20.0 KB struct lands in the runtime's 21760-byte
// size class) and one chain column (2048 bytes, a size class exactly).
// TestHashIndexFootprintBudget holds both against the measured heap.
const (
	chunkBytes = 21760
	chainBytes = 4 * arenaChunk
)

// A block that outgrows its size class must fail the build, not skew
// the footprint gauges.
var _ [chunkBytes - unsafe.Sizeof(colChunk{})]byte

// newChunk returns an empty block, with a payload column when withPayload.
func newChunk(withPayload bool, sharers int32) *colChunk {
	c := &colChunk{sharers: sharers}
	if withPayload {
		c.payload = make([][]byte, arenaChunk)
	}
	return c
}

// put writes t as row pos.
func (c *colChunk) put(pos int32, t *Tuple) {
	c.key[pos] = t.Key
	c.aux[pos] = t.Aux
	c.u[pos] = t.U
	c.seq[pos] = t.Seq
	c.meta[pos] = t.metaWord()
	if t.Payload != nil {
		c.payload[pos] = t.Payload
	}
}

// atIntoMeta materializes the tuple stored at pos directly into *dst,
// overwriting every field — the inverse of put — with the meta word
// supplied by the caller: the batch probe captures it during the gather
// pass (an early touch of the block that overlaps with the remaining
// directory walk), so materialization skips the meta column read.
func (c *colChunk) atIntoMeta(pos int32, m uint64, dst *Tuple) {
	dst.setMeta(m)
	dst.Key = c.key[pos]
	dst.Aux = c.aux[pos]
	dst.U = c.u[pos]
	dst.Seq = c.seq[pos]
	if c.payload != nil {
		dst.Payload = c.payload[pos]
	} else {
		dst.Payload = nil
	}
}

// at materializes the tuple stored at pos.
func (c *colChunk) at(pos int32) Tuple {
	var t Tuple
	c.atIntoMeta(pos, c.meta[pos], &t)
	return t
}

// view is one arena entry: rows [lo, hi) of block c.
type view struct {
	c      *colChunk
	lo, hi int32
}

// tupleArena is a chunked columnar tuple store: a list of views of
// published windows. The zero value is an empty arena.
type tupleArena struct {
	chunks []view
	n      int
	// charge sums rows x chunkBytes / sharers over the views, so
	// Footprint charges a block once across the arenas viewing it.
	charge int64
	// mutGen counts destructive rebuilds (Retain). Added windows and
	// adoptions leave it alone: they only extend the entry list, so an
	// entry-prefix watermark taken before them still names the same
	// bytes. A rebuild invalidates every outstanding watermark, which
	// the incremental-checkpoint plane detects by comparing mutGen.
	mutGen uint64
}

// immutablePrefix returns how many leading entries are frozen: every
// entry before the last, plus the last once its view reaches the end
// of its block. Entries inside the prefix never change again unless
// mutGen moves, so a delta snapshot may ship only entries at indexes
// >= a previously recorded prefix.
func (a *tupleArena) immutablePrefix() int {
	p := len(a.chunks)
	if p > 0 && a.chunks[p-1].hi < arenaChunk {
		p--
	}
	return p
}

// viewable reports whether the window w can be added by reference for
// a run of n tuples: w names exactly the run, and the entry space has
// room.
func (a *tupleArena) viewable(w Window, n int) bool {
	return w.c != nil && w.Len() == n && len(a.chunks) < maxSharedEntries
}

// addWindow appends the rows of the published window w without
// copying them: the last entry is extended when the window continues
// it, else a new one is added.
func (a *tupleArena) addWindow(w Window) {
	k := len(a.chunks) - 1
	if k >= 0 && a.chunks[k].c == w.c && a.chunks[k].hi == w.lo {
		a.chunks[k].hi = w.hi
	} else {
		a.chunks = append(a.chunks, view{c: w.c, lo: w.lo, hi: w.hi})
	}
	a.n += w.Len()
	a.charge += int64(w.Len()) * chunkBytes / int64(w.c.sharers)
}

// footprint is the arena's share of Index.Footprint: every view's rows
// divided among its block's sharers.
func (a *tupleArena) footprint() int64 { return a.charge / arenaChunk }

// dropped counts the rows whose u is outside keep: the first pass of
// Index.Retain, which reads the u column alone.
func (a *tupleArena) dropped(keep matrix.Top) (removed int) {
	if keep.All() {
		return 0
	}
	for _, v := range a.chunks {
		for _, u := range v.c.u[v.lo:v.hi] {
			if !keep.Has(u) {
				removed++
			}
		}
	}
	return removed
}

// retain is the second pass of Index.Retain: it copies the rows whose
// u is in keep row-wise, in entry order, through w — the store's own
// writer — into a fresh arena, and returns that arena and the rows'
// accounted bytes; installing the arena, and bumping mutGen with it, is
// the caller's.
func (a *tupleArena) retain(keep matrix.Top, w *BlockWriter) (kept tupleArena, bytes int64) {
	kept.chunks = make([]view, 0, a.n/arenaChunk+1)
	for _, v := range a.chunks {
		for pos := v.lo; pos < v.hi; pos++ {
			if keep.Has(v.c.u[pos]) {
				bytes += w.copyRow(&kept, v.c, pos)
			}
		}
	}
	w.flush(&kept)
	return kept, bytes
}

// scan visits every stored tuple in entry order until fn returns
// false, reporting whether the scan ran to completion.
func (a *tupleArena) scan(fn func(Tuple) bool) bool {
	for _, v := range a.chunks {
		for pos := v.lo; pos < v.hi; pos++ {
			if !fn(v.c.at(pos)) {
				return false
			}
		}
	}
	return true
}

// adopt splices every entry of o onto a, consuming o. No tuple is
// copied — adoption is what makes a scan store's migration finalization
// a splice instead of a second ingest.
func (a *tupleArena) adopt(o *tupleArena) {
	if len(a.chunks) == 0 {
		a.chunks = o.chunks
	} else {
		a.chunks = append(a.chunks, o.chunks...)
	}
	a.n += o.n
	a.charge += o.charge
	*o = tupleArena{}
}
