package join

import "repro/internal/matrix"

// Blocks and their writers: a BlockWriter is the one code path that
// writes arena rows. On the grid route every R tuple is stored by all m
// joiners of its row and every S tuple by all n joiners of its column,
// and in one process those replicas are byte-identical. So each grid
// line (a row for R, a column for S, or a hash-route joiner's side) of
// an epoch has one writer per process, which writes each shipped body
// once, filling the line's open block before it opens the next
// (AppendPacked); the envelope names those rows as one or two Windows,
// and every joiner that stores the body adds a view of them to its
// arena instead of copying the tuples. A writer for two or more readers
// also indexes each row once, in the line's slot index (SlotIndex,
// slotindex.go); a joiner that took every window of the line reads that
// index as of its own watermark (a segment) instead of indexing the
// window's rows in its own slot index (the fallback), so a probe walks
// one directory per side and epoch. A band line writes no blocks: its
// writer inserts each body once into the line's ordered index
// (LineTree, btree.go), and its joiners read that tree the same way,
// as of their watermarks.
//
// A worker process is a block writer too: its receive loop writes the
// body of each data frame once into the open block kept for the
// frame's line (AppendRecord), and the decoded envelope carries the
// windows to every joiner the frame names. A tuple is thus stored and
// indexed once per process that hosts its row or spans its column.
//
// A writer stores each row's key, aux and seq (24 bytes) and lets the
// block's header derive its u and meta word (arena.go): a line's
// writer is told by its reshuffler when every u of a run is the routing
// mix of the operator seed it was Reset with, and a worker's frame line
// takes the rule the body's column record states (record.go); every
// other writer infers the rule from a run's first row and tests the
// others once.
//
// Every store owns one more writer, for one reader, through which it
// copies what it cannot view (copyRun, copyRow): a run without a
// window, a restored snapshot. A hash store's own
// writer indexes too: it keeps the store's own slot index and indexes
// in it every window it adds to the store's arena, its own copies when
// it flushes them and every other writer's window that no live segment
// continues (view, take). The migration encoder and the block decoder
// write the same way, without an index. Only a checkpoint capture hands
// an own writer's windows to another goroutine, so its block is sealed
// then (seal); the own index never leaves the store's goroutine.
//
// The invariants that make this race-free without reference counts:
//
//   - one writer per line — the reshuffler holding the line's lock, a
//     worker's receive loop, or a store's own writer — writing only at
//     rows >= the last published hi, so no row a reader can reach ever
//     changes;
//   - the readers of a line take its windows in writer order: a
//     reshuffler pushes the envelope before it releases the lock, into
//     inboxes that are FIFO channels (a worker's receive loop writes
//     and pushes in one order);
//   - a reader touches only its windows' [lo, hi) rows, which the
//     envelope's channel send publishes — except in the slot index,
//     where a probe may meet newer rows at a chain's head, and reads
//     nothing of them but their key and chain link, written before the
//     directory word that names them;
//   - directory words are 8-byte values the writer stores atomically
//     and readers load atomically; a row's chain link is written before
//     the word that names it;
//   - the directory and the block table grow copy-on-write behind
//     atomic pointers: a reader that loaded the old directory keeps a
//     frozen one that holds every row published before the swap, so
//     every row below its watermark;
//   - a reader reads the index as of its watermark W, the position its
//     last window ended at: chains run newest-first over decreasing
//     positions, so it skips the rows at or past W and sees exactly the
//     rows of its own windows;
//   - every body a line ships is one window, or two that follow each
//     other in the slot index (AppendPacked), indexed: a reshuffler of
//     a sharing operator ships at most a block per envelope, and a
//     worker rejects a longer frame body as malformed;
//   - a gap — a window the reader did not take through the segment —
//     freezes the segment at its W, and the line's later windows go to
//     the reader's own slot index;
//   - line order agrees with a checkpoint's cut: a reshuffler that has
//     pushed its marker publishes no window until every marker is out
//     (core's ckptEvent.allCut);
//   - a line belongs to one epoch, so Alg. 3's ∆ windows continue the
//     old lines' segments and ∆′ windows open segments on the new lines,
//     which finalize hands to the state live; each reshuffler pushes its
//     old-epoch windows before its signal, so by the last signal no
//     writer adds to an old line, and a joiner holds every old-epoch
//     window its segments name and may freeze them;
//   - no header field changes once another goroutine may hold a window
//     of the block (the writer sealed it): the header — the payload, u
//     and meta columns, the seed and the meta word — says how every
//     row's u and meta are read, so a run whose rows need a column the
//     sealed block lacks (a payload, a u the seed does not derive, a
//     meta word other than the block's) opens a new block (fits), with
//     every u or meta column the writer has needed before (open); an
//     unsealed block gains the column in place (colChunk.widen), its
//     written rows' derived values filled in before any reader can
//     hold them;
//   - nothing is pooled: the garbage collector frees a block or an index
//     once the last arena, index, segment or envelope referencing it is
//     gone.

// Window is the run of rows [lo, hi) of a shared block that one
// envelope's body was written into, row i holding body tuple i. The
// zero Window names nothing: the body exists only as tuples. A window
// of an indexing writer also names the writer's SlotIndex, the index
// position of row lo (at), and the position the line's previous window
// ended at (prev, 0 for the line's first window): a store whose segment
// watermark equals prev continues the segment with it (lineMark.take).
// A band line's window names no block but the line's LineTree, which
// holds the body's rows at line positions [at, at+hi), lo being 0.
type Window struct {
	c        *colChunk
	ix       *SlotIndex
	tree     *LineTree
	lo, hi   int32
	at, prev uint32
}

// Len reports how many rows w names.
func (w Window) Len() int { return int(w.hi - w.lo) }

// lineMark is a store's watermark on one line index — a line's
// SlotIndex or LineTree —: the position its last window of the line
// ended at (w), and whether its windows still continue the line (live).
// The store reads the index as of w, so it sees exactly the rows of
// the windows it took.
type lineMark struct {
	w    uint32
	live bool
}

// opensLine reports whether w is its line's first window: the only one
// a store starts reading a line's index at, with a live mark at 0.
func opensLine(w Window) bool { return w.prev == 0 }

// take is the one continuation rule of both index kinds: a store reads
// a line's index only while it has taken every window of the line since
// the first, so w continues the mark when it starts where the store's
// last window of the line ended (prev), and the mark moves to w's end.
// Any other window — after a gap, a replay-filtered run or a window the
// store could not add — stops the mark for good.
func (m *lineMark) take(w Window) bool {
	if !m.live || m.w != w.prev {
		m.live = false
		return false
	}
	m.w = w.at + uint32(w.Len())
	return true
}

// BlockWriter is the open block of a writer, with the slot index over
// every block it wrote when it keeps one. A line's writer writes
// nothing (Shared is false) until Reset gives it a fan-out. A store's
// own writer, used through copyRun, copyRow, next and view, writes
// blocks for one reader and indexes every window it adds to the
// store's arena in the store's own slot index; without an index (a scan
// store's writer, an encoder's or a decoder's) it only adds them.
type BlockWriter struct {
	c  *colChunk
	ix *SlotIndex
	// hi is the next row to write; pub the first row not yet published
	// in a Window.
	hi, pub int32
	sharers int32
	// sealed reports that another goroutine may hold a window of the
	// open block, so its header (the optional columns) is frozen.
	sealed bool
	// uCol and metaCol report that a block of the writer has needed an
	// explicit u or meta column: every later block opens with it, so
	// rows that alternate shapes cannot leave a trail of short blocks.
	uCol, metaCol bool
	// holds is a block whose every row the open block can take as it is
	// (copyRow), or nil.
	holds *colChunk
	// ixPub is the index position the line's last published window
	// ended at.
	ixPub uint32
	// seed is the routing seed of the runs AppendPacked is told are
	// derived.
	seed uint64
}

// Reset drops the open block and the slot index — a block or index in
// use stays alive through the windows and segments that reference it —
// and sets the fan-out the next block is written for: the number of
// in-process joiners the line ships to, and the routing seed of the
// runs its caller vouches are derived (AppendPacked). A fan-out of zero
// turns the writer off; a fan-out of two or more starts a fresh, empty
// slot index when index is set. Otherwise the readers index the windows
// themselves: one reader would index them at the same cost through a
// line's slot index as through its own.
func (b *BlockWriter) Reset(sharers int, index bool, seed uint64) {
	*b = BlockWriter{sharers: int32(sharers), seed: seed}
	if sharers > 1 && index {
		b.ix = newSlotIndex(int32(sharers))
	}
}

// Shared reports whether the line writes shared blocks at all.
func (b *BlockWriter) Shared() bool { return b.sharers > 0 }

// fits reports whether the open block can take n more rows of shape sh:
// false when the block is full, or when the block, sealed by a
// published window, lacks a column the rows need.
func (b *BlockWriter) fits(n int32, sh rowShape) bool {
	return b.c != nil && b.hi+n <= arenaChunk && (!b.sealed || b.c.holds(sh))
}

// open makes room for n rows of shape sh: a fresh block when the open
// one cannot take them (see fits), with every column the writer has
// needed before, else the open one, given the columns it lacks in place
// — until the block is sealed no other goroutine holds a window of it,
// and no index entry reads anything but its keys. A line's writer whose
// index spans maxSlotBlocks drops the index at a fresh block.
func (b *BlockWriter) open(n int32, sh rowShape) {
	if !b.fits(n, sh) {
		sh.uCol, sh.metaCol = sh.uCol || b.uCol, sh.metaCol || b.metaCol
		b.c, b.hi, b.pub, b.sealed, b.holds = newChunk(sh, max(b.sharers, 1)), 0, 0, false, nil
		if b.sharers > 1 && b.ix != nil && b.ix.nblocks >= maxSlotBlocks {
			b.ix = nil
		}
	} else if !b.c.holds(sh) {
		b.c.widen(sh, b.hi)
	}
	b.uCol, b.metaCol = b.uCol || b.c.u != nil, b.metaCol || b.c.meta != nil
}

// WindowRows is the longest run AppendRun writes as a window: a block.
const WindowRows = arenaChunk

// AppendRun writes run as consecutive rows of one block and publishes
// them to the line's readers as one Window, row i holding run[i],
// indexed in the slot index and with the block sealed; it opens a fresh
// block when the open one cannot take the whole run (see fits). Each
// row's u rule is inferred (runShape). An empty run gets the zero
// Window. A run must fit a block (WindowRows): its callers cap every
// shared body at one.
func (b *BlockWriter) AppendRun(run []Tuple) Window {
	if len(run) == 0 {
		return Window{}
	}
	return b.appendRun(run, runShape(run, false, 0))
}

// appendRun is AppendRun for rows of shape sh.
func (b *BlockWriter) appendRun(run []Tuple, sh rowShape) Window {
	if len(run) == 0 {
		return Window{}
	}
	b.open(int32(len(run)), sh)
	w := Window{c: b.c, lo: b.hi}
	for i := range run {
		b.c.put(b.hi, &run[i])
		b.hi++
	}
	w.hi, b.pub, b.sealed = b.hi, b.hi, true
	if b.ix != nil {
		// Indexed before any reader holds the window.
		w.ix, w.at, w.prev = b.ix, b.ix.index(b.c, w.lo, w.hi), b.ixPub
		b.ixPub = w.at + uint32(len(run))
	}
	return w
}

// AppendPacked is AppendRun for a line that keeps its blocks full: it
// writes the rows of run that the open block can take as one Window
// and the rest, if any, as a second Window at the head of a fresh
// block, which continues the first in the slot index. A run the open
// block takes whole, or none of (see fits), gets a zero second Window.
// When derived is set the caller vouches that every row's U is
// UMix(seed, Seq) for the seed the writer was Reset with — the routed
// path knows which u it derived — and no row's u is tested.
func (b *BlockWriter) AppendPacked(run []Tuple, derived bool) (w, rest Window) {
	if len(run) == 0 {
		return Window{}, Window{}
	}
	return b.appendPacked(run, runShape(run, derived, b.seed))
}

// AppendRecord is AppendPacked for run as ReadColumnRecord decoded it
// from rec, with the seed the writer was Reset with: the rows take the
// rule of the record's header, and none is tested.
func (b *BlockWriter) AppendRecord(run []Tuple, rec ColumnRecord) (w, rest Window) {
	if len(run) == 0 {
		return Window{}, Window{}
	}
	return b.appendPacked(run, rec.shape(b.seed))
}

// appendPacked is AppendPacked for rows of shape sh.
func (b *BlockWriter) appendPacked(run []Tuple, sh rowShape) (w, rest Window) {
	n := len(run)
	if b.fits(1, sh) {
		n = min(n, int(arenaChunk-b.hi))
	}
	return b.appendRun(run[:n], sh), b.appendRun(run[n:], sh)
}

// copyRun writes ts through b into a, a block's worth at a time, and
// adds what it wrote as windows: the copy path of a store's own writer.
func (b *BlockWriter) copyRun(a *tupleArena, ts []Tuple) {
	if len(ts) == 0 {
		return
	}
	sh := runShape(ts, false, 0)
	for len(ts) > 0 {
		b.room(a, sh)
		n := min(len(ts), int(arenaChunk-b.hi))
		for i := range ts[:n] {
			b.c.put(b.hi, &ts[i])
			b.hi++
		}
		ts = ts[n:]
	}
	b.flush(a)
}

// next makes room for one more row of shape sh and returns the block
// and the row to write it at: the step of a row-at-a-time copy.
func (b *BlockWriter) next(a *tupleArena, sh rowShape) (*colChunk, int32) {
	b.room(a, sh)
	b.hi++
	return b.c, b.hi - 1
}

// room makes the open block ready for one more row of shape sh, first
// adding the window written so far to a whenever the open block cannot
// take the row; flush adds the rest.
func (b *BlockWriter) room(a *tupleArena, sh rowShape) {
	if !b.fits(1, sh) {
		b.flush(a)
	}
	b.open(1, sh)
}

// flush adds the rows written since the last window to a, as one
// window that leaves the block's header open: only the writer's
// goroutine reads it until the next seal.
func (b *BlockWriter) flush(a *tupleArena) {
	if b.hi > b.pub {
		b.view(a, Window{c: b.c, lo: b.pub, hi: b.hi})
		b.pub = b.hi
	}
}

// view adds the rows of the window w to a without copying them, and
// indexes them when b keeps an index: every row a store's own writer
// adds goes through here, its own windows (flush) and other writers'.
func (b *BlockWriter) view(a *tupleArena, w Window) {
	a.addWindow(w, b.ix)
	if b.ix != nil {
		b.ix.index(w.c, w.lo, w.hi)
	}
}

// take adds the rows of another writer's published window w to a, after
// the rows b holds unpublished: a view while a's entry space has room
// (viewable), else a copy through b.
func (b *BlockWriter) take(a *tupleArena, w Window) {
	b.flush(a)
	if a.viewable(w, w.Len()) {
		b.view(a, w)
		return
	}
	for pos := w.lo; pos < w.hi; pos++ {
		b.copyRow(a, w.c, pos)
	}
	b.flush(a)
}

// seal freezes the header of the open block once a window of it is
// published: a capture on the writer's goroutine is about to hand views
// of the block to another goroutine.
func (b *BlockWriter) seal() { b.sealed = b.sealed || b.pub > 0 }

// copyRow copies the row at pos of src — its columns and its payload —
// through b into a and returns the row's accounted bytes: the copy
// behind Retain and the migration selection, which never build a
// Tuple. The open block is given every column src has, with src's seed
// and meta word (colChunk.shape), once per source block, so a derived
// row stays derived with nothing recomputed, and each row is copied
// without a test of its own.
func (b *BlockWriter) copyRow(a *tupleArena, src *colChunk, pos int32) int64 {
	if src != b.holds || b.hi == arenaChunk {
		b.room(a, src.shape())
		b.holds = src
	}
	c, i := b.c, b.hi
	b.hi++
	c.key[i] = src.key[pos]
	c.aux[i] = src.aux[pos]
	c.seq[i] = src.seq[pos]
	if c.u != nil {
		c.u[i] = src.uAt(pos)
	}
	m := src.metaAt(pos)
	if c.meta != nil {
		c.meta[i] = m
	}
	var p []byte
	if src.payload != nil {
		p = src.payload[pos]
		c.payload[i] = p
	}
	return metaBytes(m, p)
}

// BlockView describes one arena entry: the identity of the block it
// views (comparable, opaque), the fan-out its writer wrote it for (1
// for a store's own writer) and the rows [Lo, Hi) it holds.
// Diagnostics and tests use it to see which blocks joiners share.
type BlockView struct {
	Block   any
	Sharers int
	Lo, Hi  int
}

// Views lists the arena entries of side's index, in order; an ordered
// index, which keeps its tuples in its own leaves, has none.
func (l *Local) Views(side matrix.Side) []BlockView {
	var a *tupleArena
	switch idx := l.index(side).(type) {
	case *HashIndex:
		a = &idx.arena
	case *ScanIndex:
		a = &idx.arena
	default:
		return nil
	}
	out := make([]BlockView, len(a.chunks))
	for i, v := range a.chunks {
		out[i] = BlockView{Block: v.c, Sharers: int(v.c.sharers), Lo: int(v.lo), Hi: int(v.hi)}
	}
	return out
}

// SegmentView describes how a store indexes its rows: the line
// indexes its segments read, oldest first (comparable, opaque
// identities), how many of those segments still take windows, and the
// distinct keys of the store's own index (for an ordered index, the
// rows of its own tree), which is not one of Indexes. Diagnostics and
// tests use it to see which indexes joiners share.
type SegmentView struct {
	Indexes []any
	Live    int
	Keys    int
}

// Segments describes side's index (see SegmentView); a scan index
// reads no segment and reports no keys.
func (l *Local) Segments(side matrix.Side) SegmentView {
	if o, ok := l.index(side).(*OrderedIndex); ok {
		v := SegmentView{Keys: o.n}
		if o.line != nil {
			v.Indexes, v.Live = []any{o.line}, 1
		}
		return v
	}
	h, ok := l.index(side).(*HashIndex)
	if !ok {
		return SegmentView{}
	}
	v := SegmentView{Keys: h.own.ix.used}
	for _, s := range h.segs {
		v.Indexes = append(v.Indexes, s.ix)
		if s.live {
			v.Live++
		}
	}
	return v
}
