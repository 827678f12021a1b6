package join

import (
	"math/bits"
	"sync/atomic"
)

// SlotIndex is the one hash index kind: a directory over newest-first
// chains of rows that one writer indexes while any number of readers
// probe it. Two kinds of writer keep one:
//
//   - a sharing block writer (BlockWriter) of a grid line and epoch in
//     one process — every epoch's, so a migration hands the index over
//     instead of re-indexing it — over the blocks it writes, so a row
//     replicated to m joiners of one process is indexed once, not m
//     times. The writer —
//     whichever reshuffler holds the line's lock — indexes each row
//     before it publishes the window naming it; the joiners that store
//     the windows read the index as of their own watermark (a segment);
//   - a HashIndex's own writer, for its one reader: every row the store
//     copies, and every window it views that no segment serves.
//
// A reader reads an index through a keep filter on u, which a
// migration discard narrows, so a frozen index serves only the rows its
// store still holds; once frozen, through a tag filter too, and a probe
// skips a frozen index whose tag filter rules its key out.
//
// An index position names a row of the index's block table,
// block<<arenaShift | row. A block is entered in the table when a
// window of it is first indexed, and again when windows of other blocks
// were indexed since, so positions only grow and the newest-first
// chains run over decreasing positions. The directory (slotDir) is
// lock-free for one writer and any number of readers: the writer
// stores its words (head = position+1 of the key's newest row)
// atomically and readers load them atomically. A row's chain link (the
// position+1 of the key's previous row) lives in its block's chain
// column and is written before the directory word that names the row.
// A store's own index, read only on its writer's goroutine between
// inserts, replaces its directory in place.
//
// Growth is copy-on-write: the writer publishes the grown directory
// (slotDir.grown) behind an atomic pointer; the old one stays frozen
// for the readers that loaded it, and holds every row published before
// the swap. The block table grows the same way. Resident bytes per
// indexed row, mostly-distinct keys:
//
//	directory    8 B / load (10.7-21.3 B at the 3/4 growth threshold)
//	chain        4 B   one uint32 link per row, in per-block columns
//	table        16 B per entry (512 rows when the entry's block is full)
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
	// tail is one past the last row indexed in the last block entered.
	tail    int32
	used    int // distinct keys
	sharers int32
	// touch keeps add's cache-warming loads alive; its value means
	// nothing.
	touch uint64
	// dirBytes and chainBytes are the index's resident bytes, written
	// by the writer and read by the readers' Footprint.
	dirBytes, chainBytes atomic.Int64
	// filter is the tag filter the last reader that froze a segment on
	// the index built (segment.freeze), for the others to share.
	filter atomic.Pointer[tagFilter]
}

// slotDir is the key directory of a SlotIndex: an open-addressed (linear probing) table of
// 8-byte words, tag<<32 | head, with no pointer and no key. tag is the
// high 32 bits of the key's hash — its top bits are the word's home
// slot, so growth re-places a word from the word alone — and head links
// to the key's newest stored row (its position + 1; 0 marks
// an empty slot, so a freshly allocated directory is empty without
// being written, and its untouched pages stay out of the resident set).
// The key itself lives only in the blocks: a tag hit is confirmed
// against the key column, which a probe hit is about to read anyway,
// and a miss never leaves the slot's cache line.
type slotDir struct {
	slots []uint64
	mask  uint32 // len(slots) - 1
	shift uint8  // home slot of a tag = tag >> shift
}

// slotBytes is the resident size of one directory slot.
const slotBytes = 8

// minSlots is the smallest directory.
const minSlots = 16

// dirSlots is the one sizing rule: the slots a directory needs to hold
// n distinct keys at a load of at most 3/4.
func dirSlots(n int) int {
	slots := minSlots
	for slots-slots/4 < n {
		slots <<= 1
	}
	return slots
}

// newDir returns an empty directory sized for n distinct keys.
func newDir(n int) slotDir {
	slots := dirSlots(n)
	return slotDir{slots: make([]uint64, slots), mask: uint32(slots - 1), shift: uint8(32 - bits.TrailingZeros(uint(slots)))}
}

// full reports whether a directory holding used keys must grow before
// it takes another one: the sizing rule seen from the insert side.
func (d *slotDir) full(used int) bool { return used >= len(d.slots)-len(d.slots)/4 }

// home returns the slot a tag's probe sequence starts at.
func (d *slotDir) home(tag uint32) uint32 { return tag >> (d.shift & 31) }

// grown is the one growth routine: it places every word of d into a
// fresh directory sized for n keys, at least twice d's size when it
// grows a full one. Home slots scale with the directory, so the pass
// writes the new directory nearly front to back; d itself is left
// untouched for whoever still reads it.
func (d *slotDir) grown(n int) slotDir {
	nd := newDir(n)
	for _, s := range d.slots {
		if s != 0 {
			j := nd.home(uint32(s >> 32))
			for nd.slots[j] != 0 {
				j = (j + 1) & nd.mask
			}
			nd.slots[j] = s
		}
	}
	return nd
}

// slotEntry is one block of a SlotIndex with its chain column.
type slotEntry struct {
	c    *colChunk
	next *[arenaChunk]uint32
}

// noBlocks is the table of an index that holds no block yet.
var noBlocks []slotEntry

// maxSlotBlocks bounds the blocks one line's index spans, keeping every
// position below 2^31 (a probeHit offset); a line writer past it drops
// its index, and its readers index the line's later windows in their
// own indexes. A store's own index has no such bound to meet: it enters
// at most one block per arena entry (see maxSharedEntries). A variable
// only so that tests can narrow it.
var maxSlotBlocks = 1 << 22

// newSlotIndex returns an empty index for blocks of fan-out sharers.
func newSlotIndex(sharers int32) *SlotIndex {
	x := &SlotIndex{sharers: sharers}
	x.setDir(newDir(0))
	x.table.Store(&noBlocks)
	return x
}

// setDir installs d as the directory the writer inserts into and
// readers load. A line's readers may still walk the old one, which
// stays frozen; a store's own index (one sharer) has its one reader on
// the writer's goroutine, between inserts, so its directory is replaced
// in place.
func (x *SlotIndex) setDir(d slotDir) {
	if x.cur != nil && x.sharers == 1 {
		*x.cur = d
	} else {
		p := new(slotDir)
		*p = d
		x.cur = p
		x.dir.Store(p)
	}
	x.dirBytes.Store(int64(len(d.slots)) * slotBytes)
}

// entryLookback bounds how far back addBlock looks for an earlier entry
// of the same block: windows of several blocks can reach a store
// interleaved (its own copies between viewed windows, or several
// writers' lines), and each such block then pays one chain column
// however often it is entered.
const entryLookback = 16

// addBlock enters c as the next block of the index, sharing the chain
// column of an earlier entry of c within entryLookback (the two hold
// disjoint rows) or allocating one.
func (x *SlotIndex) addBlock(c *colChunk) {
	if x.nblocks == len(x.blocks) {
		grown := make([]slotEntry, max(16, 2*len(x.blocks)))
		copy(grown, x.blocks)
		x.blocks = grown
		x.table.Store(&grown)
	}
	e := slotEntry{c: c}
	for k := x.nblocks - 1; k >= max(0, x.nblocks-entryLookback) && e.next == nil; k-- {
		if x.blocks[k].c == c {
			e.next = x.blocks[k].next
		}
	}
	if e.next == nil {
		e.next = new([arenaChunk]uint32)
		x.chainBytes.Add(chainBytes)
	}
	x.blocks[x.nblocks] = e
	x.nblocks++
}

// index indexes rows [lo, hi) of block c, entering c as the next block
// unless it is the last one entered, and returns the position of row
// lo: the writer's step at publication, before any reader can hold a
// watermark past them. The windows of a block reach an index in row
// order, so positions only grow.
func (x *SlotIndex) index(c *colChunk, lo, hi int32) uint32 {
	return x.indexRows(c, rowNums[lo:hi]) | uint32(lo)
}

// indexRows indexes the rows of block c listed in rows, in increasing
// order, as index does, and returns the position of the block's row 0.
// Rows of c below ones already indexed (a fold meets a block's views in
// arena order, not row order) enter c again, so positions still only
// grow.
func (x *SlotIndex) indexRows(c *colChunk, rows []int32) uint32 {
	if len(rows) == 0 {
		return uint32(max(x.nblocks-1, 0)) << arenaShift
	}
	if x.nblocks == 0 || x.blocks[x.nblocks-1].c != c || rows[0] < x.tail {
		x.addBlock(c)
	}
	base := uint32(x.nblocks-1) << arenaShift
	x.add(base, rows)
	x.tail = rows[len(rows)-1] + 1
	return base
}

// add indexes the listed rows of the block at position base. Each
// chunk's home slots are loaded before the first insert resolves, as
// slotReader.walk does, so their misses overlap.
func (x *SlotIndex) add(base uint32, rows []int32) {
	e := x.blocks[base>>arenaShift]
	var tags [walkChunk]uint32
	for start := 0; start < len(rows); start += walkChunk {
		chunk := rows[start:min(start+walkChunk, len(rows))]
		d := x.cur
		var touch uint64
		for k, row := range chunk {
			tags[k] = tagOf(e.c.key[row])
			touch += d.slots[d.home(tags[k])]
		}
		x.touch = touch
		for k, row := range chunk {
			x.insert(tags[k], e.c.key[row], base|uint32(row), &e.next[row])
		}
	}
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
		switch s := d.slots[i]; {
		case s == 0:
			x.used++
		case uint32(s>>32) == tag && x.keyAt(uint32(s)-1) == key:
			*link = uint32(s)
		default:
			continue
		}
		atomic.StoreUint64(&d.slots[i], head)
		return
	}
}

// share returns one reader's share of the index's resident bytes:
// chain columns and directory divided among the blocks' readers.
func (x *SlotIndex) share() (chainBytes, dirBytes int64) {
	n := int64(x.sharers)
	return x.chainBytes.Load() / n, x.dirBytes.Load() / n
}

// segment is a store's read handle on a SlotIndex: the store consumed
// every window of the index from its first one up to position w, so
// the index's rows below w are exactly the rows of those windows, and
// the store indexes none of them itself. Chains run newest-first over
// decreasing positions, so a probe skips the few rows at or past w that
// other readers' windows, or windows still in flight, have added, and
// sees what an index of the store's own over the same windows would
// hold. A window that does not continue the segment (lineMark.take) —
// one the store did not get, got filtered, or copied instead — leaves w
// where it is (live turns false), and the rest of the line's windows go
// to the store's own index. A migration discard narrows keep, the rows
// the store still holds (HashIndex.Retain); a segment also reads a
// frozen own index of the store's or of a merged store's (w allRows).
type segment struct {
	ix *SlotIndex
	lineMark
	keep keepSet
	// filter, once the segment is frozen (it takes no more windows), is
	// a membership filter over the tags of its index's rows, which a
	// probe tests before it reads the directory (tagFilter).
	filter *tagFilter
}

// freeze stops the segment taking windows and gives it a tag filter:
// the store reads the index as it stands from now on. The readers of a
// line that has ended share one filter: a filter built as of watermark
// w serves every segment whose watermark is at or below w.
func (s *segment) freeze() {
	s.live = false
	if s.filter != nil {
		return
	}
	if f := s.ix.filter.Load(); f != nil && f.w >= s.w {
		s.filter = f
		return
	}
	s.filter = newTagFilter(s.ix, s.w)
	s.ix.filter.Store(s.filter)
}

// frozenSegment returns a segment that reads every row of x, an index
// nothing writes any more (a store's own index narrowed by a discard,
// a merged store's own index, a compaction's), through keep.
func frozenSegment(x *SlotIndex, keep keepSet) segment {
	s := segment{ix: x, lineMark: lineMark{w: allRows}, keep: keep}
	s.freeze()
	return s
}

// tagFilter is a frozen segment's membership filter, the Bloom filter
// of an LSM tree's frozen runs: two bits of one 64-bit word per key,
// set from the key's tag, at a byte or two per key, so the filter of a
// store's frozen indexes stays in cache where their directories do
// not. A probe whose tag misses either bit skips the directory; about
// one absent key in twenty passes. It is built from the directory's
// words, which hold every indexed key's tag, so it holds every row the
// segment reads whatever the watermark.
type tagFilter struct {
	words []uint64
	mask  uint32
	// w is the watermark the filter was built for: it holds every row
	// below it.
	w uint32
}

// newTagFilter builds the filter of x's keys as its directory holds
// them now, for a reader at watermark w: every row below w was indexed
// before the reader's windows were published, so the directory the
// reader loads holds its tag. It is sized for the most keys the
// directory holds (3/4 of its slots), a byte a key, so it takes 3/32 of
// the directory's bytes.
func newTagFilter(x *SlotIndex, w uint32) *tagFilter {
	d := x.dir.Load()
	n := 1
	for n*8 < len(d.slots)*3/4 {
		n <<= 1
	}
	f := &tagFilter{words: make([]uint64, n), mask: uint32(n - 1), w: w}
	for i := range d.slots {
		// Branch-free: an empty word (s 0) sets no bit.
		s := atomic.LoadUint64(&d.slots[i])
		tag := uint32(s >> 32)
		f.words[tag&f.mask] |= tagBits(tag) & -min(s, 1)
	}
	return f
}

// bytes is the filter's resident size.
func (f *tagFilter) bytes() int64 {
	if f == nil {
		return 0
	}
	return int64(8 * len(f.words))
}

// tagBits is the two bits of a tag's word: from its top twelve bits,
// while its low bits pick the word.
func tagBits(tag uint32) uint64 { return 1<<(tag>>20&63) | 1<<(tag>>26) }

// has reports whether a key of tag may be in the segment.
func (f *tagFilter) has(tag uint32) bool {
	b := tagBits(tag)
	return f.words[tag&f.mask]&b == b
}

// maxSegments bounds the segments one store reads, each a directory
// every probe walks; a store at the bound indexes new lines' windows
// itself. In the operator a migration's finalize leaves a store at most
// maxDirs directories (HashIndex.compact).
const maxSegments = 64

// slotReader probes one index as of a watermark, keeping the rows keep
// holds. It loads the directory once per run; the block table is
// reloaded only when a position (an in-flight head) names a block past
// the loaded one.
type slotReader struct {
	ix   *SlotIndex
	d    *slotDir
	tbl  []slotEntry
	w    uint32
	keep keepSet
	// filter is a frozen segment's tag filter, or nil.
	filter *tagFilter
}

// allRows is the watermark that reads every row: a store's own index
// has no rows in flight.
const allRows = ^uint32(0)

// reader returns a reader of x as of watermark w, keeping the rows
// keep holds.
func (x *SlotIndex) reader(w uint32, keep keepSet) slotReader {
	return slotReader{ix: x, d: x.dir.Load(), tbl: *x.table.Load(), w: w, keep: keep}
}

// mayHold reports whether a key of tag may have a row in the index: it
// passes the reader's tag filter, if any. A probe of any other key
// reads nothing of the directory.
func (r *slotReader) mayHold(tag uint32) bool {
	return r.filter == nil || r.filter.has(tag)
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
// the rows at or past the watermark (all at the chain's head) and, for
// a filtered reader, the rows keep does not hold: the one u read a
// filter costs, on hits only.
func (r *slotReader) gather(head uint32, probe int32, hits []probeHit) []probeHit {
	for head > r.w {
		pos := head - 1
		head = r.entry(pos).next[pos&(arenaChunk-1)]
	}
	if !r.keep.all() {
		return r.gatherKept(head, probe, hits)
	}
	for head != 0 {
		pos := head - 1
		e, row := &r.tbl[pos>>arenaShift], pos&(arenaChunk-1)
		head = e.next[row]
		hits = append(hits, probeHit{probe: probe, off: int32(pos), meta: e.c.metaAt(int32(row))})
	}
	return hits
}

// gatherKept is gather's loop for a filtered reader.
func (r *slotReader) gatherKept(head uint32, probe int32, hits []probeHit) []probeHit {
	for head != 0 {
		pos := head - 1
		e, row := &r.tbl[pos>>arenaShift], int32(pos&(arenaChunk-1))
		head = e.next[row]
		if r.keep.has(e.c.uAt(row)) {
			hits = append(hits, probeHit{probe: probe, off: int32(pos), meta: e.c.metaAt(row)})
		}
	}
	return hits
}

// walk gathers into hits the rows below the watermark that every
// non-dummy tuple of ts hits, a chunk of walkChunk keys at a time: the
// chunk's keys are all hashed and their home slots all loaded before
// the first one resolves. A key a frozen segment's tag filter rules out
// reads nothing of the directory.
func (r *slotReader) walk(ts []Tuple, hits []probeHit) []probeHit {
	var (
		tags  [walkChunk]uint32
		first [walkChunk]uint64
	)
	for i := 0; i < len(ts); i += walkChunk {
		chunk := ts[i:min(i+walkChunk, len(ts))]
		for k := range chunk {
			tags[k] = tagOf(chunk[k].Key)
			first[k] = 0
			if r.mayHold(tags[k]) {
				first[k] = atomic.LoadUint64(&r.d.slots[r.d.home(tags[k])])
			}
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
// window's view and the segment's watermark moves to the window's end;
// h's own index takes nothing. Any other window, or one h cannot add by
// reference, is left to the own index, and a segment it does not
// continue stays frozen at its watermark.
func (h *HashIndex) takeWindow(ts []Tuple, w Window) bool {
	if w.ix == nil || !h.arena.viewable(w, len(ts)) {
		return false
	}
	s := h.segmentOf(w.ix)
	if s == nil {
		if !opensLine(w) || len(h.segs) >= maxSegments {
			return false
		}
		h.segs = append(h.segs, segment{ix: w.ix, lineMark: lineMark{live: true}})
		s = &h.segs[len(h.segs)-1]
	}
	if !s.take(w) {
		return false
	}
	h.arena.addWindow(w, w.ix)
	return true
}
