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
//   - a block's two pointers (payload column, chain column) lead the
//     struct and the 20 KB of columns behind them are pointer-free, so
//     the garbage collector skips stored state instead of scanning a
//     slice header per tuple, and
//   - batch probes can gather match offsets from the directory first
//     and materialize result pairs in a tight second loop, rather than
//     interleaving hash walks with full-tuple copies.
//
// Growth appends a fresh block — stored tuples are never relocated —
// and an arena offset encodes its block and position explicitly
// (off = chunk<<arenaShift | pos) rather than as a global index, so a
// block may sit anywhere in the chunk list while partially filled.
// That is what lets adopt() splice another arena's blocks in wholesale
// at migration finalization, whatever fill level either arena ends at.
//
// What one stored tuple costs in a block (see index.go for the hash
// directory's share, and README "Byte budget" for the whole table):
//
//	key, aux, u, seq   4 x 8 B   the tuple itself
//	meta               8 B       Rel (1 bit), Dummy (1 bit), Size (32 bits)
//	next               4 B       hash indexes only: the per-key chain
//	payload            0 B       24 B + the bytes once any tuple of the
//	                             block carries one
//
// The five data columns are the 40 B/tuple every snapshot, delta,
// spill record and migration block frame over a link carries; they are
// written once, at append. A migration copies rows column by column
// (appendRow) into blocks that a target in the same process adopts as
// they are, never serialized. The u column is what the migration
// filters read: the τ selection and the Retain discard test it alone
// (retainTop) and build no Tuple. The chain column is derived state
// like the directory: never serialized, rebuilt from the key column
// whenever blocks are adopted.

// arenaChunk sizes the arena's fixed blocks.
const (
	arenaChunk = 512
	arenaShift = 9 // log2(arenaChunk)
)

// maxReserve caps how many tuples a single Reserve hint may
// preallocate for, bounding what a wild cardinality estimate can
// balloon a joiner by: at the cap, 1024 blocks (~24 MB with their chain
// columns) plus, for a mostly-distinct key set, a 2^20-slot directory
// (8 MB) per side. Beyond the cap the index simply resumes incremental
// growth.
const maxReserve = 1 << 19

// colChunk is one block of the arena: arenaChunk tuples decomposed
// into parallel columns. n is the fill level; slots at positions
// >= n are unwritten. The payload column is allocated lazily, on the
// first payload-carrying tuple appended to the block. The chain column
// belongs to HashIndex (scan indexes never allocate it):
// next[pos] links the tuple at pos to the previously stored tuple of
// the same key, as offset+1 with 0 ending the chain. It is its own
// allocation because block plus chain would round up a size class
// (22.5 KB -> 24 KB) and waste what the chain saves.
type colChunk struct {
	payload [][]byte
	next    *[arenaChunk]uint32
	n       int
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

// links returns the block's chain column, allocating it on first use.
func (c *colChunk) links() *[arenaChunk]uint32 {
	if c.next == nil {
		c.next = new([arenaChunk]uint32)
	}
	return c.next
}

// atIntoMeta materializes the tuple stored at pos directly into *dst,
// overwriting every field — the inverse of the per-column writes in
// tupleArena.append — with the meta word supplied by the caller: the
// batch probe captures it during the gather pass (an early touch of the
// block that overlaps with the remaining directory walk), so
// materialization skips the meta column read.
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

// tupleArena is a chunked columnar tuple store. The zero value is an
// empty arena.
type tupleArena struct {
	chunks []*colChunk
	// tail indexes the chunk receiving appends. Chunks before it may be
	// partially filled (an adopted arena's former tail); chunks after it
	// are reserved capacity, empty until appends reach them.
	tail int
	n    int
	// mutGen counts destructive rebuilds (Retain). Appends and
	// adoptions leave it alone: they only extend the chunk list, so a
	// block-prefix watermark taken before them still names the same
	// bytes. A rebuild invalidates every outstanding watermark, which
	// the incremental-checkpoint plane detects by comparing mutGen.
	mutGen uint64
}

// immutablePrefix returns how many leading chunks are frozen: every
// chunk before tail (full, or a partial adopted tail that will never
// grow), plus the tail itself once it fills. Chunks inside the prefix
// never change again unless mutGen moves, so a delta snapshot may ship
// only chunks at indexes >= a previously recorded prefix.
func (a *tupleArena) immutablePrefix() int {
	p := a.tail
	if p < len(a.chunks) && a.chunks[p].n == arenaChunk {
		p++
	}
	return p
}

// grab returns the chunk (and its index) the next append lands in,
// advancing past filled blocks into reserved ones and allocating a
// fresh block only when no capacity is left.
func (a *tupleArena) grab() (*colChunk, int) {
	for a.tail < len(a.chunks) {
		if c := a.chunks[a.tail]; c.n < arenaChunk {
			return c, a.tail
		}
		a.tail++
	}
	c := &colChunk{}
	a.chunks = append(a.chunks, c)
	a.tail = len(a.chunks) - 1
	return c, a.tail
}

// append stores t and returns its offset; t is taken by pointer so
// the call moves five machine words into the columns instead of
// copying the 64-byte struct twice. Arena offsets are int32: a single
// joiner index holding >2^31 tuples would exhaust memory long before
// the offset space.
func (a *tupleArena) append(t *Tuple) int32 {
	c, ci := a.grab()
	pos := c.n
	c.key[pos] = t.Key
	c.aux[pos] = t.Aux
	c.u[pos] = t.U
	c.seq[pos] = t.Seq
	c.meta[pos] = t.metaWord()
	if t.Payload != nil {
		if c.payload == nil {
			c.payload = make([][]byte, arenaChunk)
		}
		c.payload[pos] = t.Payload
	}
	c.n++
	a.n++
	return int32(ci<<arenaShift | pos)
}

// appendRow copies the row at pos of src — its five data columns and
// its payload — into a's tail block and returns the row's accounted
// bytes: the copy behind Retain and the migration selection, which
// never build a Tuple.
func (a *tupleArena) appendRow(src *colChunk, pos int) int64 {
	c, _ := a.grab()
	i := c.n
	c.key[i] = src.key[pos]
	c.aux[i] = src.aux[pos]
	c.u[i] = src.u[pos]
	c.seq[i] = src.seq[pos]
	m := src.meta[pos]
	c.meta[i] = m
	var p []byte
	if src.payload != nil {
		if p = src.payload[pos]; p != nil {
			if c.payload == nil {
				c.payload = make([][]byte, arenaChunk)
			}
			c.payload[i] = p
		}
	}
	c.n++
	a.n++
	return metaBytes(m, p)
}

// retainTop is the arena half of Index.Retain: one pass over the u
// column counts the rows keep drops, and when there are any, a second
// copies the survivors row-wise, in block order, into fresh compact
// blocks. It returns the fresh arena (empty when nothing is removed),
// the removed count and the survivors' accounted bytes; installing the
// arena, and bumping mutGen with it, is the caller's.
func (a *tupleArena) retainTop(keep matrix.Top) (kept tupleArena, removed int, bytes int64) {
	if keep.All() {
		return kept, 0, 0
	}
	for _, c := range a.chunks {
		for _, u := range c.u[:c.n] {
			if !keep.Has(u) {
				removed++
			}
		}
	}
	if removed == 0 {
		return kept, 0, 0
	}
	kept.reserve(a.n - removed)
	for _, c := range a.chunks {
		for pos, u := range c.u[:c.n] {
			if keep.Has(u) {
				bytes += kept.appendRow(c, pos)
			}
		}
	}
	return kept, removed, bytes
}

// keyAt reads only the key at offset off: the confirm step of a
// directory tag hit.
func (a *tupleArena) keyAt(off int32) int64 {
	return a.chunks[off>>arenaShift].key[off&(arenaChunk-1)]
}

// atIntoMeta materializes the tuple at offset off using a meta word the
// caller already read (the batch probe captures it while walking the
// chain, an early touch of the block that overlaps with the rest of the
// gather pass).
func (a *tupleArena) atIntoMeta(off int32, m uint64, dst *Tuple) {
	a.chunks[off>>arenaShift].atIntoMeta(off&(arenaChunk-1), m, dst)
}

// scan visits every stored tuple in block order until fn returns
// false, reporting whether the scan ran to completion.
func (a *tupleArena) scan(fn func(Tuple) bool) bool {
	for _, c := range a.chunks {
		for pos := int32(0); pos < int32(c.n); pos++ {
			if !fn(c.at(pos)) {
				return false
			}
		}
	}
	return true
}

// reserve preallocates blocks so the arena can hold n tuples in total
// without further allocation. The hint is clamped to maxReserve; a
// reserve never shrinks the arena.
func (a *tupleArena) reserve(n int) {
	if n > maxReserve {
		n = maxReserve
	}
	// Capacity still ahead of the append cursor; blocks before tail may
	// be partially filled forever (adopted tails) and do not count.
	avail := (len(a.chunks) - a.tail) * arenaChunk
	if a.tail < len(a.chunks) {
		avail -= a.chunks[a.tail].n
	}
	for need := n - a.n - avail; need > 0; need -= arenaChunk {
		a.chunks = append(a.chunks, &colChunk{})
	}
}

// trim drops reserved-but-empty trailing blocks, releasing unused
// reserve capacity ahead of an adoption so it does not end up buried
// mid-list where appends can never reach it.
func (a *tupleArena) trim() {
	for len(a.chunks) > 0 && a.chunks[len(a.chunks)-1].n == 0 {
		a.chunks = a.chunks[:len(a.chunks)-1]
	}
	if a.tail > len(a.chunks) {
		a.tail = len(a.chunks)
	}
}

// adopt splices every block of o onto a, consuming o, and returns the
// index a's chunk list gained o's blocks at: offset ci<<arenaShift|pos
// in o becomes (base+ci)<<arenaShift|pos in a. No tuple is copied —
// adoption is what makes migration finalization a directory rebuild
// instead of a second ingest. a's previous tail block simply stays
// partial; only o's tail keeps receiving appends.
func (a *tupleArena) adopt(o *tupleArena) int {
	a.trim()
	o.trim()
	base := len(a.chunks)
	a.chunks = append(a.chunks, o.chunks...)
	a.tail = base + o.tail
	a.n += o.n
	*o = tupleArena{}
	return base
}
