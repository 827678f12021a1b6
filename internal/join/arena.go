package join

import (
	"unsafe"

	"repro/internal/matrix"
)

// The columnar tuple arena: the storage plane the hash and scan
// indexes store their tuples in (the ordered index keeps its tuples in
// its own key-ordered leaves, btree.go). Tuples are decomposed into
// parallel fixed-size column blocks — Key, Aux and Seq, with U, the
// packed meta word (Rel/Dummy/Size) and the payload as properties of
// the block — instead of an array of 64-byte Tuple structs. The layout
// buys three things on the hot path:
//
//   - inserts append only the hot scalar columns (24 bytes across three
//     dense arrays; no u or meta column while the block's header
//     derives them, no payload slice header unless a payload exists),
//   - a block's three pointers (its optional columns) lead the struct
//     and the 12 KB of columns behind them are pointer-free, so the
//     garbage collector skips stored state instead of scanning a slice
//     header per tuple, and
//   - batch probes can gather match positions from a directory first
//     and materialize result pairs in a tight second loop, rather than
//     interleaving hash walks with full-tuple copies.
//
// A block's u values follow one of three rules: every row's u is zero
// (join.Local users, the hash route), every row's u is UMix(seed, seq)
// for the one seed in the header (every routed tuple whose caller left
// U zero), or the block has an explicit u column (caller-set U,
// reshuffler dummies). Its meta words are one header word unless rows
// differ, when the block has an explicit meta column. A writer picks
// the rules for the rows it writes (rowShape) and adds a column to its
// open block while no other goroutine holds a window of it; otherwise
// the rows open a fresh block (BlockWriter.open, shared.go).
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
//	key, aux, seq      3 x 8 B   the tuple itself
//	block header       2.5 B     its 64 B and the size class's
//	                             rounding (12.1 KB in 13.25 KB)
//	u                  0 B       8 B once any row of the block has a u
//	                             the header does not derive
//	meta               0 B       8 B once two rows of the block differ
//	                             in Rel, Dummy or Size
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
// block's sharers (6.6 B of the 26.5 on a (4,4) grid, all 26.5 for a
// block of the store's own writer).
//
// The codecs do not depend on the in-memory layout. Snapshots, deltas
// and migration block frames carry five 8-byte words a row, 40 B: the
// encoders write the derived u and meta values. A spill record is
// storage's 42-byte per-tuple record (plus payload). A worker data
// frame's body is a column record (record.go), 24 B a row when every
// u is derived, whose header carries the rule. Blocks are written
// once, by a writer. A
// migration copies rows column by column (BlockWriter.copyRow) into
// blocks that a target in the same process adopts as they are, never
// serialized; a row copied into a block with the header it came from
// stays derived, with nothing recomputed. The u values are what the
// migration filters read: the τ selection and the Retain discard test
// them alone (uRows: the u column, or the seq column through the
// block's seed) and build no Tuple. The chain column is derived state
// like the directory: it belongs to a SlotIndex, is never serialized,
// and is rebuilt from the key column whenever entries are adopted.

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
// The header — the optional columns, the seed and the meta word — is
// set when the block is opened and widened (widen) only before its
// first window is published, so no reader ever sees it change.
type colChunk struct {
	payload [][]byte
	// u is the explicit u column, nil while the header derives every
	// row's u: UMix(seed, seq[pos]) when derived, else zero.
	u *[arenaChunk]uint64
	// meta is the explicit meta column, nil while every row's meta word
	// is meta0.
	meta *[arenaChunk]uint64
	// sharers is the number of arenas the block's writer wrote it for,
	// recorded at creation: the joiners of a slot, or 1 for a store's
	// own writer.
	sharers int32
	derived bool
	seed    uint64
	meta0   uint64
	key     [arenaChunk]int64
	aux     [arenaChunk]int64
	seq     [arenaChunk]uint64
}

// Resident sizes behind Index.Footprint: what the allocator hands out
// for one block (the 12.1 KB struct lands in the runtime's 13568-byte
// size class), for one optional u or meta column (4096 bytes, a size
// class exactly) and for one chain column (2048 bytes, a size class
// exactly). TestHashIndexFootprintBudget holds them against the
// measured heap.
const (
	chunkBytes = 13568
	colBytes   = 8 * arenaChunk
	chainBytes = 4 * arenaChunk
)

// A block that outgrows its size class must fail the build, not skew
// the footprint gauges.
var _ [chunkBytes - unsafe.Sizeof(colChunk{})]byte

// zeroRows is the u of every row of a block whose header derives zero.
var zeroRows [arenaChunk]uint64

// rowShape is what rows ask of the header of the block they are written
// into: a payload column, how their u values follow — all zero, all
// UMix(seed, seq) for one seed, or neither (uCol) — and their meta
// words, one word unless they differ (metaCol).
type rowShape struct {
	payload, uCol, metaCol bool
	derived                bool
	seed, meta             uint64
}

// tupleShape is the shape of the one row t: its u is zero or, since
// UMix is a bijection in the seed, derived from the seed seedOf infers.
// Two rows share a derived rule exactly when their inferred seeds
// agree.
func tupleShape(t *Tuple) rowShape {
	sh := rowShape{payload: t.Payload != nil, meta: t.metaWord()}
	if t.U != 0 {
		sh.derived, sh.seed = true, seedOf(t.U, t.Seq)
	}
	return sh
}

// runShape is the shape of run's rows. With derived set, the caller
// vouches that every row's u is UMix(seed, Seq) and no u is tested;
// otherwise the rule is inferred from the first row (tupleShape) and
// every row's u is tested against it once. The loops fold differences
// into words instead of branching per row: a line's writer runs one
// per envelope.
func runShape(run []Tuple, derived bool, seed uint64) rowShape {
	sh := rowShape{derived: true, seed: seed, meta: run[0].metaWord()}
	if !derived {
		sh = tupleShape(&run[0])
	}
	var metaDiff uint64
	for i := range run {
		sh.payload = sh.payload || run[i].Payload != nil
		metaDiff |= run[i].metaWord() ^ sh.meta
	}
	sh.metaCol = metaDiff != 0
	if derived {
		return sh
	}
	var uDiff uint64
	if sh.derived {
		for i := range run {
			uDiff |= run[i].U ^ UMix(sh.seed, run[i].Seq)
		}
	} else {
		for i := range run {
			uDiff |= run[i].U
		}
	}
	sh.uCol = uDiff != 0
	return sh
}

// shape is the shape of every row c can hold: its columns, its seed
// and its meta word. A block whose header holds it takes any row of c
// as it is (BlockWriter.copyRow).
func (c *colChunk) shape() rowShape {
	return rowShape{
		payload: c.payload != nil, uCol: c.u != nil, metaCol: c.meta != nil,
		derived: c.derived, seed: c.seed, meta: c.meta0,
	}
}

// newChunk returns an empty block whose header holds sh's rows.
func newChunk(sh rowShape, sharers int32) *colChunk {
	c := &colChunk{sharers: sharers, derived: sh.derived, seed: sh.seed, meta0: sh.meta}
	if sh.payload {
		c.payload = make([][]byte, arenaChunk)
	}
	if sh.uCol {
		c.u = new([arenaChunk]uint64)
	}
	if sh.metaCol {
		c.meta = new([arenaChunk]uint64)
	}
	return c
}

// holds reports whether c's header already holds rows of shape sh.
func (c *colChunk) holds(sh rowShape) bool {
	return (!sh.payload || c.payload != nil) && c.holdsU(sh) && c.holdsMeta(sh)
}

func (c *colChunk) holdsU(sh rowShape) bool {
	return c.u != nil || !sh.uCol && sh.derived == c.derived && sh.seed == c.seed
}

func (c *colChunk) holdsMeta(sh rowShape) bool {
	return c.meta != nil || !sh.metaCol && sh.meta == c.meta0
}

// widen adds to c the columns rows of shape sh need, filling each new
// u or meta column's first rows rows from the header: only while no
// other goroutine holds a window of c (its writer has not sealed it).
func (c *colChunk) widen(sh rowShape, rows int32) {
	if sh.payload && c.payload == nil {
		c.payload = make([][]byte, arenaChunk)
	}
	if !c.holdsU(sh) {
		col := new([arenaChunk]uint64)
		if c.derived {
			c.uRows(0, rows, col)
		}
		c.u = col
	}
	if !c.holdsMeta(sh) {
		col := new([arenaChunk]uint64)
		for pos := range rows {
			col[pos] = c.meta0
		}
		c.meta = col
	}
}

// bytes is what the allocator holds for c, payload bytes aside.
func (c *colChunk) bytes() int64 {
	n := int64(chunkBytes)
	if c.u != nil {
		n += colBytes
	}
	if c.meta != nil {
		n += colBytes
	}
	return n
}

// put writes t as row pos; c's header must hold t's shape.
func (c *colChunk) put(pos int32, t *Tuple) {
	c.key[pos] = t.Key
	c.aux[pos] = t.Aux
	c.seq[pos] = t.Seq
	if c.u != nil {
		c.u[pos] = t.U
	}
	if c.meta != nil {
		c.meta[pos] = t.metaWord()
	}
	if t.Payload != nil {
		c.payload[pos] = t.Payload
	}
}

// uAt returns the u of the row at pos.
func (c *colChunk) uAt(pos int32) uint64 {
	if c.u != nil {
		return c.u[pos]
	}
	if c.derived {
		return UMix(c.seed, c.seq[pos])
	}
	return 0
}

// uRows returns the u values of rows [lo, hi): the u column itself,
// zeros, or each derived value computed once into buf.
func (c *colChunk) uRows(lo, hi int32, buf *[arenaChunk]uint64) []uint64 {
	switch {
	case c.u != nil:
		return c.u[lo:hi]
	case !c.derived:
		return zeroRows[lo:hi]
	}
	for pos := lo; pos < hi; pos++ {
		buf[pos] = UMix(c.seed, c.seq[pos])
	}
	return buf[lo:hi]
}

// metaAt returns the meta word of the row at pos.
func (c *colChunk) metaAt(pos int32) uint64 {
	if c.meta != nil {
		return c.meta[pos]
	}
	return c.meta0
}

// atIntoMeta materializes the tuple stored at pos directly into *dst,
// overwriting every field — the inverse of put — with the meta word
// supplied by the caller: the batch probe captures it during the gather
// pass, so materialization reads no meta again.
func (c *colChunk) atIntoMeta(pos int32, m uint64, dst *Tuple) {
	dst.setMeta(m)
	dst.Key = c.key[pos]
	dst.Aux = c.aux[pos]
	dst.U = c.uAt(pos)
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
	c.atIntoMeta(pos, c.metaAt(pos), &t)
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
	a.charge += int64(w.Len()) * w.c.bytes() / int64(w.c.sharers)
}

// footprint is the arena's share of Index.Footprint: every view's rows
// divided among its block's sharers.
func (a *tupleArena) footprint() int64 { return a.charge / arenaChunk }

// filter is the first pass of Index.Retain: it tests every row's u
// against keep, in entry order, deriving each derived u once, and
// returns how many rows keep drops and, when it drops any, which rows
// it keeps (bit i of kept for the arena's i-th row), for retain to
// copy without testing again.
func (a *tupleArena) filter(keep matrix.Top) (kept []uint64, removed int) {
	if keep.All() {
		return nil, 0
	}
	var buf [arenaChunk]uint64
	i := 0
	for _, v := range a.chunks {
		for _, u := range v.c.uRows(v.lo, v.hi, &buf) {
			switch {
			case keep.Has(u):
				if kept != nil {
					kept[i>>6] |= 1 << (i & 63)
				}
			case kept == nil:
				// The first row dropped: every row before it is kept.
				kept = make([]uint64, (a.n+63)/64)
				for k := 0; k < i; k++ {
					kept[k>>6] |= 1 << (k & 63)
				}
				removed++
			default:
				removed++
			}
			i++
		}
	}
	return kept, removed
}

// retain is the second pass of Index.Retain: it copies the rows filter
// kept row-wise, in entry order, through w — the store's own writer —
// into a fresh arena, and returns that arena and the rows' accounted
// bytes; installing the arena, and bumping mutGen with it, is the
// caller's.
func (a *tupleArena) retain(kept []uint64, w *BlockWriter) (arena tupleArena, bytes int64) {
	arena.chunks = make([]view, 0, a.n/arenaChunk+1)
	i := 0
	for _, v := range a.chunks {
		for pos := v.lo; pos < v.hi; pos++ {
			if kept[i>>6]&(1<<(i&63)) != 0 {
				bytes += w.copyRow(&arena, v.c, pos)
			}
			i++
		}
	}
	w.flush(&arena)
	return arena, bytes
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
