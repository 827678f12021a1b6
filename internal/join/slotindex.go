package join

import (
	"sync/atomic"

	"repro/internal/matrix"
)

// SlotIndex is the hash index a sharing block writer (BlockWriter)
// keeps over the blocks it writes: one per grid line and epoch in each
// process, so a row replicated to m joiners of one process is indexed
// once, not m times. The writer — whichever reshuffler holds the
// line's lock — inserts each row before it publishes the window naming
// it; the joiners that store the windows read the index as of their
// own watermark instead of indexing the rows themselves (see segment).
//
// An index position names a row of the writer's block sequence,
// block<<arenaShift | row, and grows with every row written, so the
// newest-first chains of the index run over decreasing positions. The
// directory is HashIndex's slotDir made lock-free for one writer and
// any number of readers: the writer stores its words (head = position+1
// of the key's newest row) atomically and readers load them atomically.
// A row's chain link (the position+1 of the key's previous row) lives
// in a per-block chain column and is written before the directory word
// that names the row.
//
// Growth follows HashIndex's rule (slotDir.grown) and is copy-on-write:
// the writer publishes the grown directory behind an atomic pointer;
// the old one stays frozen for the readers that loaded it, and holds
// every row published before the swap. The block table grows the same
// way. Resident bytes per indexed row, mostly-distinct keys:
//
//	directory    8 B / load (10.7-21.3 B at the 3/4 growth threshold)
//	chain        4 B   one uint32 link per row, in per-block columns
//	table        16 B per 512 rows
//
// so a row of a (4,4) grid's line costs each of its m = 4 readers a
// quarter of that.
type SlotIndex struct {
	// dir and table are what readers load; cur and blocks are the
	// writer's own copies of the same values.
	dir   atomic.Pointer[slotDir]
	table atomic.Pointer[[]slotEntry]
	cur   *slotDir
	// blocks is the writer's block table: entries [0, nblocks) are
	// written, the rest of its capacity is zero. The published table is
	// the whole capacity, so appending a block publishes nothing new.
	blocks  []slotEntry
	nblocks int
	used    int // distinct keys
	sharers int32
	// touch keeps add's cache-warming loads alive; its value means
	// nothing.
	touch uint64
	// dirBytes and chainBytes are the index's resident bytes, and keys
	// its distinct-key count as of the last window, written by the
	// writer and read by the readers' Footprint and fold.
	dirBytes, chainBytes, keys atomic.Int64
}

// slotEntry is one block of a SlotIndex with its chain column.
type slotEntry struct {
	c    *colChunk
	next *[arenaChunk]uint32
}

// maxSlotBlocks bounds the blocks one index spans, keeping every
// position below 2^31 (a probeHit offset); a writer past it drops its
// index, and its readers index the line's later windows themselves.
const maxSlotBlocks = 1 << 22

// newSlotIndex returns an empty index for blocks of fan-out sharers.
func newSlotIndex(sharers int32) *SlotIndex {
	x := &SlotIndex{sharers: sharers}
	x.setDir(newDir(0))
	return x
}

// setDir installs d as the directory writers insert into and readers
// load.
func (x *SlotIndex) setDir(d slotDir) {
	x.cur = &d
	x.dir.Store(&d)
	x.dirBytes.Store(int64(len(d.slots)) * slotBytes)
}

// addBlock enters c as the next block of the index and returns the
// position of its row 0, or false once the index spans maxSlotBlocks.
func (x *SlotIndex) addBlock(c *colChunk) (uint32, bool) {
	if x.nblocks == maxSlotBlocks {
		return 0, false
	}
	if x.nblocks == len(x.blocks) {
		grown := make([]slotEntry, max(16, 2*len(x.blocks)))
		copy(grown, x.blocks)
		x.blocks = grown
		x.table.Store(&grown)
	}
	x.blocks[x.nblocks] = slotEntry{c: c, next: new([arenaChunk]uint32)}
	x.nblocks++
	x.chainBytes.Add(chainBytes)
	return uint32(x.nblocks-1) << arenaShift, true
}

// add indexes rows [lo, hi) of the block at position base: the
// writer's step at publication, before any reader can hold a watermark
// past them. Each chunk's home slots are loaded before the first insert
// resolves, as HashIndex.walk does, so their misses overlap.
func (x *SlotIndex) add(base uint32, lo, hi int32) {
	e := x.blocks[base>>arenaShift]
	var tags [walkChunk]uint32
	for start := lo; start < hi; start += walkChunk {
		end := min(start+walkChunk, hi)
		d := x.cur
		var touch uint64
		for row := start; row < end; row++ {
			tags[row-start] = tagOf(e.c.key[row])
			touch += d.slots[d.home(tags[row-start])]
		}
		x.touch = touch
		for row := start; row < end; row++ {
			x.insert(tags[row-start], e.c.key[row], base|uint32(row), &e.next[row])
		}
	}
	x.keys.Store(int64(x.used))
}

// keyAt reads the key of the row at pos (writer side).
func (x *SlotIndex) keyAt(pos uint32) int64 {
	return x.blocks[pos>>arenaShift].c.key[pos&(arenaChunk-1)]
}

// insert links the row at pos as the newest of key's chain: its link
// takes the old head, then the directory word names it.
func (x *SlotIndex) insert(tag uint32, key int64, pos uint32, link *uint32) {
	if x.cur.full(x.used) {
		x.setDir(x.cur.grown(x.used + 1))
	}
	d := x.cur
	head := uint64(tag)<<32 | uint64(pos+1)
	for i := d.home(tag); ; i = (i + 1) & d.mask {
		s := d.slots[i]
		if s == 0 {
			atomic.StoreUint64(&d.slots[i], head)
			x.used++
			return
		}
		if uint32(s>>32) == tag && x.keyAt(uint32(s)-1) == key {
			*link = uint32(s)
			atomic.StoreUint64(&d.slots[i], head)
			return
		}
	}
}

// segment is a store's read handle on a SlotIndex: the store consumed
// every window of the index from its first one up to position w, so
// the index's rows below w are exactly the rows of those windows, and
// the store indexes none of them itself. Chains run newest-first over
// increasing positions, so a probe skips the few rows at or past w that
// other readers' windows, or windows still in flight, have added, and
// sees what a private index over the same windows would hold. A window
// that does not continue the segment — one the store did not get, got
// filtered, or copied instead — leaves w where it is (live turns false)
// and the rest of the line's windows are indexed privately.
type segment struct {
	ix   *SlotIndex
	w    uint32
	live bool
}

// maxSegments bounds the segments one store reads, each a directory
// every probe walks; a store at the bound indexes new lines' windows
// itself. In the operator a store holds one per epoch whose line
// writers indexed (today only the first epoch's do).
const maxSegments = 64

// share returns the segment's share of its index's resident bytes:
// chain columns and directory divided among the blocks' readers.
func (s *segment) share() (chainBytes, dirBytes int64) {
	n := int64(s.ix.sharers)
	return s.ix.chainBytes.Load() / n, s.ix.dirBytes.Load() / n
}

// slotReader probes one segment's index as of its watermark. It loads
// the directory once per run; the block table is reloaded only when a
// position (an in-flight head) names a block past the loaded one.
type slotReader struct {
	ix  *SlotIndex
	d   *slotDir
	tbl []slotEntry
	w   uint32
}

func (s *segment) reader() slotReader {
	return slotReader{ix: s.ix, d: s.ix.dir.Load(), tbl: *s.ix.table.Load(), w: s.w}
}

// entry returns the block table entry of position pos.
func (r *slotReader) entry(pos uint32) *slotEntry {
	b := pos >> arenaShift
	if int(b) >= len(r.tbl) {
		r.tbl = *r.ix.table.Load()
	}
	return &r.tbl[b]
}

// findFrom resolves key's chain head from the directory word s loaded
// at slot i, walking on by linear probing: 0 when the key is absent.
// A key with rows below the watermark was placed before the reader's
// windows were published, and a placed word never empties, so the walk
// cannot stop short of it.
func (r *slotReader) findFrom(i uint32, s uint64, tag uint32, key int64) uint32 {
	for s != 0 {
		if uint32(s>>32) == tag {
			pos := uint32(s) - 1
			if r.entry(pos).c.key[pos&(arenaChunk-1)] == key {
				return uint32(s)
			}
		}
		i = (i + 1) & r.d.mask
		s = atomic.LoadUint64(&r.d.slots[i])
	}
	return 0
}

// gather appends the hits of key's chain that head starts, skipping
// the rows at or past the watermark (all at the chain's head).
func (r *slotReader) gather(head uint32, probe int32, hits []probeHit) []probeHit {
	for head > r.w {
		pos := head - 1
		head = r.entry(pos).next[pos&(arenaChunk-1)]
	}
	for head != 0 {
		pos := head - 1
		e, row := &r.tbl[pos>>arenaShift], pos&(arenaChunk-1)
		head = e.next[row]
		hits = append(hits, probeHit{probe: probe, off: int32(pos), meta: e.c.meta[row]})
	}
	return hits
}

// walk gathers into hits the rows below the watermark that every
// non-dummy tuple of ts hits, a chunk of home-slot loads at a time as
// HashIndex.walk does.
func (r *slotReader) walk(ts []Tuple, hits []probeHit) []probeHit {
	var (
		tags  [walkChunk]uint32
		first [walkChunk]uint64
	)
	for i := 0; i < len(ts); i += walkChunk {
		chunk := ts[i:min(i+walkChunk, len(ts))]
		for k := range chunk {
			tags[k] = tagOf(chunk[k].Key)
			first[k] = atomic.LoadUint64(&r.d.slots[r.d.home(tags[k])])
		}
		for k := range chunk {
			if chunk[k].Dummy || first[k] == 0 {
				continue
			}
			if head := r.findFrom(r.d.home(tags[k]), first[k], tags[k], chunk[k].Key); head != 0 {
				hits = r.gather(head, int32(i+k), hits)
			}
		}
	}
	return hits
}

// slotTable resolves probe-hit offsets that are index positions.
type slotTable []slotEntry

func (t slotTable) block(ci int32) *colChunk { return t[ci].c }

// probeSegments appends the pairs that the run ps makes with the rows
// every segment of h serves, one segment at a time.
func (h *HashIndex) probeSegments(ps []Tuple, rel matrix.Side, p Predicate, out *[]Pair) {
	for i := range h.segs {
		r := h.segs[i].reader()
		hits := r.walk(ps, h.hits[:0])
		materialize(slotTable(r.tbl), ps, hits, rel, p, out)
		h.putHits(hits)
	}
}

// segmentOf returns h's segment on ix, or nil.
func (h *HashIndex) segmentOf(ix *SlotIndex) *segment {
	for i := len(h.segs) - 1; i >= 0; i-- {
		if h.segs[i].ix == ix {
			return &h.segs[i]
		}
	}
	return nil
}

// takeWindow stores the run ts, written into the shared window w, as
// the continuation of a segment — or the start of one, at the line's
// first window — and reports whether it did: the arena gains the
// window's view, the segment's watermark moves to the window's end,
// and h writes no directory or chain entry. Any other window, or one
// h cannot add by reference, is left to HashIndex.add, and a
// segment it does not continue stays frozen at its watermark.
func (h *HashIndex) takeWindow(ts []Tuple, w Window) bool {
	if w.ix == nil || !h.arena.viewable(w, len(ts)) {
		return false
	}
	s := h.segmentOf(w.ix)
	switch {
	case s != nil && s.live && s.w == w.prev:
	case s == nil && w.prev == 0 && len(h.segs) < maxSegments:
		h.segs = append(h.segs, segment{ix: w.ix, live: true})
		s = &h.segs[len(h.segs)-1]
	default:
		if s != nil {
			s.live = false
		}
		return false
	}
	h.arena.addWindow(w, h.segmentEntry(len(h.arena.chunks)-1))
	for len(h.chains) < len(h.arena.chunks) {
		h.chains = append(h.chains, nil)
	}
	s.w = w.at + uint32(w.Len())
	var bytes int64
	for i := range ts {
		bytes += ts[i].Bytes()
	}
	h.bytes += bytes
	return true
}
