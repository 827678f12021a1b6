package join

import "repro/internal/matrix"

// Shared column blocks: on the grid route every R tuple is stored by
// all m joiners of its row and every S tuple by all n joiners of its
// column, and in one process those replicas are byte-identical. A
// reshuffler slot (a grid row or column) therefore writes the columns
// of each tuple it routes once, into its open block (BlockWriter), and
// the envelope it ships names the rows it added as a Window. Every
// joiner that stores the envelope's body adds a view of the window to
// its arena instead of copying the tuples. The writer also indexes each
// row once, in its slot index (SlotIndex, slotindex.go), and a joiner
// that took every window of the slot reads that index as of its own
// watermark (a segment) instead of building a directory and chain
// column over the window (HashIndex.addWindow, the fallback).
//
// A worker process is a block writer too: its receive loop writes the
// body of each data frame naming several hosted joiners once, whole,
// into an open block kept for the frame's slot (AppendRun), and the
// decoded envelope carries that window to every joiner the frame names.
// A tuple is thus stored and indexed once per process that hosts its
// row or spans its column.
//
// The invariants that make this race-free without locks or reference
// counts:
//
//   - only the owning writer (a slot, or a worker's receive loop)
//     writes a block and its slot index, and only at rows >= the last
//     published hi, so no row a reader can reach ever changes;
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
//     last window ended at: chains run newest-first over increasing
//     positions, so it skips the rows at or past W and sees exactly the
//     rows of its own windows;
//   - a gap — a window the reader did not take through the segment —
//     freezes the segment at its W, and the slot's later windows go to
//     the reader's own directory; so does a writer that stops indexing
//     (BlockWriter.stop), which marks its index closed for the readers;
//   - no header field changes once a window is published: a
//     payload-carrying tuple arriving at a published block without the
//     payload column opens a new block (BlockWriter.Fits);
//   - nothing is pooled: the garbage collector frees a block or an index
//     once the last arena, segment or envelope referencing it is gone.

// Window is the run of rows [lo, hi) of a shared block that one
// envelope's body was written into, row i holding body tuple i. The
// zero Window names nothing: the body exists only as tuples. A window
// of an indexing writer also names the writer's SlotIndex, the index
// position of row lo (at), and the position the slot's previous window
// ended at (prev, 0 for the slot's first window): a store whose segment
// watermark equals prev continues the segment with it.
type Window struct {
	c        *colChunk
	ix       *SlotIndex
	lo, hi   int32
	at, prev uint32
}

// Len reports how many rows w names.
func (w Window) Len() int { return int(w.hi - w.lo) }

// BlockWriter is a reshuffler slot's open shared block, with the slot
// index over every block it wrote. The zero value writes nothing
// (Shared is false) until Reset gives it a fan-out.
type BlockWriter struct {
	c  *colChunk
	ix *SlotIndex
	// hi is the next row to write; pub the first row not yet published
	// in a Window.
	hi, pub int32
	sharers int32
	// base is the index position of the open block's row 0, and ixPub
	// the position the last published window ended at.
	base, ixPub uint32
}

// Reset drops the open block and the slot index — a block or index in
// use stays alive through the windows and segments that reference it —
// and sets the fan-out the next block is written for: the number of
// in-process joiners the slot ships to. A fan-out of zero turns the
// writer off; any other starts a fresh, empty slot index when index is
// set, and no index otherwise (its readers index the windows
// themselves).
func (b *BlockWriter) Reset(sharers int, index bool) {
	*b = BlockWriter{sharers: int32(sharers)}
	if sharers > 0 && index {
		b.ix = newSlotIndex(int32(sharers))
	}
}

// Shared reports whether the slot writes shared blocks at all.
func (b *BlockWriter) Shared() bool { return b.sharers > 0 }

// Fits reports whether t can join the window being written: false when
// the block is full, or when t carries a payload and the block, with
// rows already published, has no payload column. On false the caller
// ships its pending window first; the next Append opens a fresh block.
func (b *BlockWriter) Fits(t *Tuple) bool {
	return b.c == nil || b.fits(1, t.Payload != nil)
}

// fits reports whether the open block can take n more rows of the
// window being written, a payload among them when payload.
func (b *BlockWriter) fits(n int32, payload bool) bool {
	return b.c != nil && b.hi+n <= arenaChunk && (!payload || b.c.payload != nil || b.pub == 0)
}

// open makes room for n rows, a payload among them when payload: a
// fresh block, entered in the slot index, when the open one cannot
// take them (see Fits), else the open one, given a payload column in
// place if it lacks one — until a window of it is published the block
// has no reader, and no index entry names it.
func (b *BlockWriter) open(n int32, payload bool) {
	if !b.fits(n, payload) {
		b.c, b.hi, b.pub = newChunk(payload, b.sharers), 0, 0
		if b.ix != nil {
			var ok bool
			if b.base, ok = b.ix.addBlock(b.c); !ok {
				b.stop()
			}
		}
	} else if payload && b.c.payload == nil {
		b.c.payload = make([][]byte, arenaChunk)
	}
}

// Append writes t as the next row, opening a fresh block when the
// current one cannot take it (see Fits).
func (b *BlockWriter) Append(t *Tuple) {
	b.open(1, t.Payload != nil)
	b.c.put(b.hi, t)
	b.hi++
}

// AppendRun writes run as consecutive rows of one block and publishes
// them as one Window, row i holding run[i]; it opens a fresh block when
// the open one cannot take the whole run (see Fits). A run longer than
// a block, or an empty one, is not written and gets the zero Window, so
// its readers copy it; a run longer than a block also stops the slot
// index, since a slot that ships such runs leaves most of its rows to
// its readers' own directories.
func (b *BlockWriter) AppendRun(run []Tuple) Window {
	if len(run) > arenaChunk {
		b.stop()
	}
	if len(run) == 0 || len(run) > arenaChunk {
		return Window{}
	}
	payload := false
	for i := range run {
		if run[i].Payload != nil {
			payload = true
			break
		}
	}
	b.open(int32(len(run)), payload)
	for i := range run {
		b.c.put(b.hi, &run[i])
		b.hi++
	}
	return b.Window()
}

// stop ends the slot index: no later window names it, so the segments
// that read it serve no more (HashIndex.serving) and the readers index
// the slot's later windows themselves.
func (b *BlockWriter) stop() {
	if b.ix != nil {
		b.ix.closed.Store(true)
		b.ix = nil
	}
}

// Window publishes the rows written since the last call, indexing them
// in the slot index first: once a reader holds the window, every row of
// it is in the index.
func (b *BlockWriter) Window() Window {
	w := Window{c: b.c, lo: b.pub, hi: b.hi}
	if b.ix != nil && b.hi > b.pub {
		w.ix, w.at, w.prev = b.ix, b.base|uint32(b.pub), b.ixPub
		b.ix.add(b.base, b.pub, b.hi)
		b.ixPub = w.at + uint32(w.Len())
	}
	b.pub = b.hi
	return w
}

// BlockView describes one arena entry: the identity of the block it
// views (comparable, opaque), the block's fan-out (0 for a private
// block) and the rows [Lo, Hi) it holds. Diagnostics and tests use it
// to see which blocks joiners share.
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

// SegmentView describes how a hash-indexed store indexes its rows: the
// slot indexes its segments read, oldest first (comparable, opaque
// identities), how many of those segments still take windows, and the
// distinct keys of the store's own directory. Diagnostics and tests use
// it to see which indexes joiners share.
type SegmentView struct {
	Indexes []any
	Live    int
	Keys    int
}

// Segments describes side's index (see SegmentView); any index kind
// but a hash index reads no segment and reports no keys.
func (l *Local) Segments(side matrix.Side) SegmentView {
	h, ok := l.index(side).(*HashIndex)
	if !ok {
		return SegmentView{}
	}
	v := SegmentView{Keys: h.used}
	for _, s := range h.segs {
		v.Indexes = append(v.Indexes, s.ix)
		if s.serving() {
			v.Live++
		}
	}
	return v
}
