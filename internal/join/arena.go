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
//   - batch probes can gather match offsets from the directory first
//     and materialize result pairs in a tight second loop, rather than
//     interleaving hash walks with full-tuple copies.
//
// An arena is a list of views: an entry names a block and the rows
// [lo, hi) of it the arena holds. A private block — one the arena
// appended itself, decoded, or adopted — is the view [0, n) and belongs
// to that one entry. A shared block is written once by a reshuffler
// slot and read by every in-process joiner of its grid row or column
// (BlockWriter): each joiner's arena holds views of the windows it was
// sent, so a replicated tuple occupies one copy of its columns per
// process however many joiners store it. Rows inside a view never
// change, and a shared block's header (its payload column) is set
// before any reader sees the block: that is what lets a checkpoint
// capture hold views by value while the writer keeps appending past
// them (only the open private tail, whose owner may still add its
// payload column, is copied).
//
// Growth appends a fresh block — stored tuples are never relocated —
// and an arena offset encodes its entry and block position explicitly
// (off = entry<<arenaShift | pos) rather than as a global index, so an
// entry may sit anywhere in the list whatever its fill. That is what
// lets adopt() splice another arena's entries in wholesale at
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
//	                             held by the index per replica, or
//	                             once per slot by the slot index a
//	                             segment reads
//	view               16 B      per entry: per 512 tuples for a private
//	                             block, per window that does not extend
//	                             the previous one for a shared block
//
// A replica's share of a shared block's columns is their bytes divided
// by the block's sharers (10 B of the 40 on a (4,4) grid).
//
// The five data columns are the 40 B/tuple every snapshot, delta,
// spill record and migration block frame over a link carries; they are
// written once, at append. A migration copies rows column by column
// (appendRow) into blocks that a target in the same process adopts as
// they are, never serialized. The u column is what the migration
// filters read: the τ selection and the Retain discard test it alone
// (retainTop) and build no Tuple. The chain column is derived state
// like the directory: it belongs to HashIndex (or to a SlotIndex), is
// never serialized, and is rebuilt from the key column whenever
// entries are adopted.

// arenaChunk sizes the arena's fixed blocks.
const (
	arenaChunk = 512
	arenaShift = 9 // log2(arenaChunk)
)

// maxReserve caps how many tuples a single Reserve hint may presize
// for, bounding what a wild cardinality estimate can balloon a joiner
// by: at the cap, a 2^20-slot directory (8 MB) for a mostly-distinct
// key set plus 1024 chain columns (2 MB) per side. Beyond the cap the
// index simply resumes incremental growth. Reserve never preallocates
// arena blocks: a store fed by shared windows would never fill them.
const maxReserve = 1 << 19

// maxSharedEntries bounds the entries shared windows may add to one
// arena. An offset holds the entry index in its top 22 bits, and an
// unbatched stream adds an entry per tuple; past the bound windows are
// copied into private blocks, which leaves the other half of the entry
// space for 2^30 more tuples.
const maxSharedEntries = 1 << 21

// colChunk is one block of the arena: arenaChunk tuples decomposed
// into parallel columns. Which rows hold tuples is the business of the
// views that reference the block; the block itself has no fill level.
// The payload column is allocated on the first payload-carrying tuple
// written to the block; a shared block gets it before its first window
// is published or never (BlockWriter), so no reader ever sees the
// header change.
type colChunk struct {
	payload [][]byte
	// sharers is the fan-out of a shared block — how many arenas hold
	// views of it — recorded at creation; 0 marks a private block.
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

// view is one arena entry: rows [lo, hi) of block c.
type view struct {
	c      *colChunk
	lo, hi int32
}

// tupleArena is a chunked columnar tuple store: a list of views. The
// zero value is an empty arena.
type tupleArena struct {
	chunks []view
	// own reports that the last entry is a private block this arena
	// appends to. Entries before the last never change: appends extend
	// only the last one (a private tail, or a shared view whose next
	// window continues it).
	own bool
	n   int
	// private counts the private blocks, each charged whole; shared sums
	// rows x chunkBytes / sharers over the views of shared blocks, so
	// Footprint charges a shared block once across the arenas viewing it.
	private int
	shared  int64
	// mutGen counts destructive rebuilds (Retain). Appends and
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

// tail returns the private block the next append lands in, with its
// entry index, opening a fresh one when the last entry is not this
// arena's own or is full. A private block gets its payload column
// lazily, on the first payload-carrying tuple appended to it (which is
// why a checkpoint capture copies the open private tail, see
// captureArena).
func (a *tupleArena) tail(withPayload bool) (*view, int) {
	k := len(a.chunks) - 1
	if !a.own || a.chunks[k].hi == arenaChunk {
		a.chunks = append(a.chunks, view{c: &colChunk{}})
		a.own = true
		a.private++
		k++
	}
	v := &a.chunks[k]
	if withPayload && v.c.payload == nil {
		v.c.payload = make([][]byte, arenaChunk)
	}
	return v, k
}

// append stores t and returns its offset; t is taken by pointer so
// the call moves five machine words into the columns instead of
// copying the 64-byte struct twice. Arena offsets are int32: a single
// joiner index holding >2^31 tuples would exhaust memory long before
// the offset space.
func (a *tupleArena) append(t *Tuple) int32 {
	v, k := a.tail(t.Payload != nil)
	pos := v.hi
	v.c.put(pos, t)
	v.hi++
	a.n++
	return int32(k<<arenaShift) | pos
}

// appendRow copies the row at pos of src — its five data columns and
// its payload — into a's tail block and returns the row's accounted
// bytes: the copy behind Retain and the migration selection, which
// never build a Tuple.
func (a *tupleArena) appendRow(src *colChunk, pos int32) int64 {
	var p []byte
	if src.payload != nil {
		p = src.payload[pos]
	}
	v, _ := a.tail(p != nil)
	c, i := v.c, v.hi
	c.key[i] = src.key[pos]
	c.aux[i] = src.aux[pos]
	c.u[i] = src.u[pos]
	c.seq[i] = src.seq[pos]
	m := src.meta[pos]
	c.meta[i] = m
	if p != nil {
		c.payload[i] = p
	}
	v.hi++
	a.n++
	return metaBytes(m, p)
}

// addWindow appends the rows [lo, hi) of shared block c without
// copying them and returns the entry they landed in: the last entry,
// extended, when the window continues it and extend allows, else a new
// one.
func (a *tupleArena) addWindow(c *colChunk, lo, hi int32, extend bool) int {
	k := len(a.chunks) - 1
	if extend && k >= 0 && a.chunks[k].c == c && a.chunks[k].hi == lo {
		a.chunks[k].hi = hi
	} else {
		a.chunks = append(a.chunks, view{c: c, lo: lo, hi: hi})
		a.own = false
		k++
	}
	a.n += int(hi - lo)
	a.shared += int64(hi-lo) * chunkBytes / int64(c.sharers)
	return k
}

// footprint is the arena's share of Index.Footprint: private blocks
// whole, shared views by their rows divided among the block's sharers.
func (a *tupleArena) footprint() int64 {
	return int64(a.private)*chunkBytes + a.shared/arenaChunk
}

// retainTop is the arena half of Index.Retain: one pass over the u
// column counts the rows keep drops, and when there are any, a second
// copies the survivors row-wise, in entry order, into fresh compact
// private blocks. It returns the fresh arena (empty when nothing is
// removed), the removed count and the survivors' accounted bytes;
// installing the arena, and bumping mutGen with it, is the caller's.
func (a *tupleArena) retainTop(keep matrix.Top) (kept tupleArena, removed int, bytes int64) {
	if keep.All() {
		return kept, 0, 0
	}
	for _, v := range a.chunks {
		for _, u := range v.c.u[v.lo:v.hi] {
			if !keep.Has(u) {
				removed++
			}
		}
	}
	if removed == 0 {
		return kept, 0, 0
	}
	kept.chunks = make([]view, 0, (a.n-removed+arenaChunk-1)/arenaChunk)
	for _, v := range a.chunks {
		for pos := v.lo; pos < v.hi; pos++ {
			if keep.Has(v.c.u[pos]) {
				bytes += kept.appendRow(v.c, pos)
			}
		}
	}
	return kept, removed, bytes
}

// keyAt reads only the key at offset off: the confirm step of a
// directory tag hit.
func (a *tupleArena) keyAt(off int32) int64 {
	return a.chunks[off>>arenaShift].c.key[off&(arenaChunk-1)]
}

// block returns the block of entry ci (see blockSource).
func (a *tupleArena) block(ci int32) *colChunk { return a.chunks[ci].c }

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

// adopt splices every entry of o onto a, consuming o, and returns the
// index a's entry list gained o's entries at: offset ci<<arenaShift|pos
// in o becomes (base+ci)<<arenaShift|pos in a. No tuple is copied —
// adoption is what makes migration finalization a directory rebuild
// instead of a second ingest. a's previous last entry simply stays as
// it is; only o's last one can still be extended.
func (a *tupleArena) adopt(o *tupleArena) int {
	base := len(a.chunks)
	if base == 0 {
		a.chunks = o.chunks
	} else {
		a.chunks = append(a.chunks, o.chunks...)
	}
	if len(o.chunks) > 0 {
		a.own = o.own
	}
	a.n += o.n
	a.private += o.private
	a.shared += o.shared
	*o = tupleArena{}
	return base
}

// packed returns a's tuples in dense private blocks when a holds far
// more entries than its tuple count needs — the restore of a store
// that held many short shared windows, each of which would otherwise
// decode into a block of its own — and a itself otherwise.
func (a *tupleArena) packed() tupleArena {
	need := (a.n + arenaChunk - 1) / arenaChunk
	if len(a.chunks) <= 2*need+1 {
		return *a
	}
	out := tupleArena{chunks: make([]view, 0, need), mutGen: a.mutGen}
	for _, v := range a.chunks {
		for pos := v.lo; pos < v.hi; pos++ {
			out.appendRow(v.c, pos)
		}
	}
	return out
}
