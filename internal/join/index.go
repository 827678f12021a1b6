package join

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/matrix"
)

// Index stores tuples of one relation and enumerates the stored tuples
// that structurally match a probe tuple from the opposite relation.
// Indexes are not safe for concurrent use; each joiner task owns its
// indexes exclusively, matching the shared-nothing model.
type Index interface {
	// Insert stores a tuple.
	Insert(t Tuple)
	// InsertBatch stores every tuple of ts; equivalent to inserting
	// them in order, with per-call overhead amortized over the batch.
	InsertBatch(ts []Tuple)
	// Probe calls fn for every stored tuple that structurally matches
	// the probe tuple under the predicate the index was built for.
	// Residual filtering is the caller's job.
	Probe(probe Tuple, fn func(stored Tuple))
	// ProbeBatchCollect probes every tuple of ps (all of relation rel)
	// in order and appends each predicate-passing match to *out as an
	// oriented Pair: the vectorized form of Probe — one call per run
	// instead of one per tuple, so hash computation and bounds checks
	// amortize — and the output half of the batch story: no per-match
	// callback at all; matches accumulate in the caller's pair buffer
	// and flush (accounting, user sink) once per run.
	ProbeBatchCollect(ps []Tuple, rel matrix.Side, p Predicate, out *[]Pair)
	// Reserve hints that the index will eventually hold about n tuples,
	// letting it presize its directory and chain columns so steady
	// ingest up to the hint does not rehash. Arena blocks are never
	// preallocated. Reserving less than the current size, or zero, is a
	// no-op; overshooting costs bounded memory (the hint is clamped
	// internally).
	Reserve(n int)
	// Len returns the number of stored tuples.
	Len() int
	// Bytes returns the accounted storage volume of stored tuples.
	Bytes() int64
	// Footprint returns, in O(1), the resident bytes the index holds:
	// its tuple storage (arena blocks and chain columns, or tree
	// leaves, as the allocator rounds them; a shared block's rows
	// divided among the arenas that view it) and the directory
	// structure on top (hash slots, inner tree nodes; zero for a scan
	// index). Out-of-line payload bytes are the caller's and are not
	// counted. (arena + directory) / Len is the resident cost of one
	// stored tuple.
	Footprint() (arenaBytes, directoryBytes int64)
	// Scan calls fn for every stored tuple, in unspecified order,
	// until fn returns false. Used by migration to enumerate state.
	Scan(fn func(Tuple) bool)
	// Retain keeps only the tuples whose routing value u is in keep,
	// returning the number removed: the migration discard, whose every
	// rule is a top-bits test on u (matrix.Top), so it reads the u
	// column and builds no tuple.
	Retain(keep matrix.Top) int
}

// collectPair appends probe⋈stored to *out when the pair passes the
// predicate, orienting the Pair by the probe's relation: the scan
// index's per-candidate step.
func collectPair(probe, stored Tuple, rel matrix.Side, p Predicate, out *[]Pair) {
	if rel == matrix.SideR {
		if p.Matches(probe, stored) {
			*out = append(*out, Pair{R: probe, S: stored})
		}
	} else {
		if p.Matches(stored, probe) {
			*out = append(*out, Pair{R: stored, S: probe})
		}
	}
}

// NewIndex returns the appropriate index implementation for a
// predicate: hash for equi, ordered (B+tree) for band, scan for theta.
func NewIndex(p Predicate) Index {
	switch p.Kind {
	case Equi:
		return NewHashIndex()
	case Band:
		return NewOrderedIndex(p.Width)
	default:
		return NewScanIndex()
	}
}

// dslot is one open-addressing directory slot: eight bytes, no
// pointers, no key. tag is the high 32 bits of the key's hash — its top
// bits are the slot's home index, so a rehash re-places a slot from the
// slot alone — and head links to the key's newest stored tuple (arena
// offset + 1; 0 marks an empty slot, so a freshly allocated directory
// is empty without being written, and its untouched pages stay out of
// the resident set). The key itself lives only in the arena: a tag hit
// is confirmed against the key column, which a probe hit is about to
// read anyway, and a miss never leaves the slot's cache line.
type dslot struct {
	tag  uint32
	head uint32
}

// slotBytes is the resident size of one directory slot.
const slotBytes = 8

// probeHit is one gathered batch-probe candidate: which probe tuple of
// the run hit, the arena offset of the stored tuple it hit, and the
// stored tuple's packed meta word. The directory walk (walk) produces
// these; pair materialization consumes them in a tight second loop.
// Capturing meta during gather is the arena-side analogue of the
// walk's chunked home-slot loads: the load
// pulls the hit's block into cache while later probes are still walking
// the directory, so materialization's column reads overlap with the
// gather instead of serializing behind it — and the captured word lets
// materialize reject dummy hits before touching the arena at all.
type probeHit struct {
	probe int32
	off   int32
	meta  uint64
}

// maxHitsCap bounds the gathered-hit scratch capacity an index retains
// between batch probes, so one high-fanout run does not become a
// permanent memory tax.
const maxHitsCap = 1 << 15

// HashIndex is a multimap from join key to tuples, the storage half of
// a symmetric hash join [42]. Tuples live in the columnar arena —
// private blocks, or views of blocks shared with the other joiners of
// a grid row or column (shared.go), whose rows the writer's slot index
// may serve instead of this index's directory (segments,
// slotindex.go); the key directory is an
// open-addressed (linear probing) table of 8-byte tagged slots, one per
// distinct key, and the tuples of one key form a newest-first chain
// threaded through the index's own chain columns, one per arena entry
// (entries viewing the same block share one). Nothing in the directory
// or the chains is a Go pointer: the collector traces one object per
// 512-tuple block, one per chain column and one per directory, never
// one per key, and a duplicate is stored by writing two words (its next
// link and the slot's head) with no list to regrow.
//
// Resident bytes per stored replica, mostly-distinct keys (the sparse
// equi-join: 125 k keys per side per joiner, directory load 0.48), on
// a (4,4) grid whose joiners copy every tuple (private), view the
// reshuffler's shared blocks under their own directories (shared), or
// view them and read the slot's index (segment, slotindex.go):
//
//	                    private   shared   segment (m = 4)
//	arena columns        40.0      10.0     10.0   (40 / m)
//	block rounding        2.5       0.6      0.6   (20.0 KB in a 21.25 KB size class)
//	chain column          4.0       4.0      1.0   (per replica, or once per slot)
//	views                 0.0     0-0.5    0-0.5   (16 B per window a block's next one does not extend)
//	directory            16.8      16.8      4.2   (slot bytes / load, per replica or once per slot)
//	total                63.3      31.5     15.9
//
// With d duplicates per key the directory share divides by d (4.2 B at
// d = 4, for totals of 50.8, 18.9 and 12.8 B). What remains after this
// layout: the 8-byte meta word (34 bits used), the U column (only the
// migration selection and discards read it), the old directory while a
// rehash drains (+50 % of the directory, briefly), the unfilled rows of
// each slot's open shared block, and whatever headroom GOGC leaves on
// top of the live heap.
//
// Directory growth is incremental: instead of re-placing every
// occupied slot at the moment the load threshold trips (a
// stop-the-world pause proportional to the directory), growth installs
// a fresh directory and keeps the old one frozen, migrating a bounded
// run of old slots on every subsequent insert until the old directory
// drains. A key therefore lives in exactly one of the two directories:
// lookups check the new one first and fall back to the old; inserts of
// a key still resident in the old directory prepend to its chain in
// place (the slot migrates later, head and all), while new keys always
// enter the new directory. Reserve short-circuits the whole dance by
// presizing the directory to an expected cardinality up front.
type HashIndex struct {
	slots []dslot
	mask  uint32 // len(slots) - 1
	shift uint8  // home slot of a tag = tag >> shift
	used  int    // occupied slots (distinct keys), across both directories
	// old is the draining directory of an in-flight incremental rehash
	// (nil otherwise); slots [0, migPos) have been re-placed into the
	// new directory, the rest still serve lookups.
	old      []dslot
	oldShift uint8
	migPos   int
	arena    tupleArena
	// chains[ci] is arena entry ci's chain column: at block position
	// pos, the link from the tuple there to the previously stored tuple
	// of its key, as offset+1 with 0 ending the chain. Entries viewing
	// the same shared block share a column (their rows are disjoint).
	// spare holds columns Reserve allocated ahead of need; nchains
	// counts the columns allocated, for Footprint.
	chains  []*[arenaChunk]uint32
	spare   []*[arenaChunk]uint32
	nchains int
	bytes   int64
	// segs are the slot indexes that serve some of the arena's shared
	// windows in place of the directory and chains (slotindex.go): a
	// probe walks the directory, when it holds any key, and each
	// segment as of its watermark.
	segs []segment
	hits []probeHit // batch-probe gather scratch
	// touch keeps walk's cache-warming loads of this directory alive;
	// its value means nothing.
	touch uint32
}

// NewHashIndex returns an empty hash index.
func NewHashIndex() *HashIndex { return &HashIndex{} }

// hashKey mixes the key bits (splitmix64 finalizer) so linear probing
// works on adversarial key sets, e.g. sequential keys.
func hashKey(k int64) uint64 {
	x := uint64(k)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// tagMask is all ones outside tests. The differential property test
// narrows it so that many distinct keys share a tag (and with it a home
// slot), which real hashes do once in 2^32 pairs: the only way to drive
// the key-confirm branch of every walk hard.
var tagMask = ^uint32(0)

// tagOf is the directory's view of a key: the high half of its hash.
func tagOf(k int64) uint32 { return uint32(hashKey(k)>>32) & tagMask }

// minSlots is the initial directory size.
const minSlots = 16

// rehashStep is how many old-directory slots each insert migrates
// while a rehash is draining. The step picks the bounded-latency point
// in a three-way trade: total migration work is len(old) slots
// regardless, but while the drain lasts every lookup miss probes both
// directories, so a larger step shortens that double-probe window; in
// the other direction the step bounds the per-insert pause (64 slots
// is a 512-byte scan). The new directory holds at least twice the old
// one, so the next growth cannot trip before len(old)/0.25 further
// distinct-key inserts — draining at rehashStep slots per insert
// finishes two orders of magnitude earlier, and growTo's forced drain
// is only a safety valve.
const rehashStep = 64

// growTo installs a directory of newCap slots (a power of two) and
// starts the incremental migration of the current one. The rare caller
// that grows while a previous rehash is still draining (an extreme
// Reserve, or adversarial duplicate-free ingest) pays a forced drain
// first, preserving the two-directory invariant.
func (h *HashIndex) growTo(newCap int) {
	if newCap < minSlots {
		newCap = minSlots
	}
	if h.old != nil {
		h.migrate(len(h.old))
	}
	if h.used != 0 {
		h.old, h.oldShift, h.migPos = h.slots, h.shift, 0
	}
	h.slots = make([]dslot, newCap)
	h.mask = uint32(newCap - 1)
	h.shift = uint8(32 - bits.TrailingZeros(uint(newCap)))
}

// migrate re-places up to k slots of the draining old directory into
// the new one, retiring the old directory once fully scanned. Only the
// 8-byte slots move, each to the home its own tag names: chains travel
// with their head link, tuples never relocate, and the arena is not
// read.
func (h *HashIndex) migrate(k int) {
	end := h.migPos + k
	if end > len(h.old) {
		end = len(h.old)
	}
	for _, s := range h.old[h.migPos:end] {
		if s.head != 0 {
			// The key cannot already be in the new directory (a key
			// lives in exactly one), so this is a pure placement walk.
			j := s.tag >> (h.shift & 31)
			for h.slots[j].head != 0 {
				j = (j + 1) & h.mask
			}
			h.slots[j] = s
		}
	}
	h.migPos = end
	if h.migPos >= len(h.old) {
		h.old, h.oldShift, h.migPos = nil, 0, 0
	}
}

// rehashing reports whether an incremental rehash is mid-drain
// (exposed for the property tests, which pin Scan/Retain/MergeFrom
// behavior at exactly this state).
func (h *HashIndex) rehashing() bool { return h.old != nil }

// holds reports whether the chain s heads is key's: the tag filters
// (one compare on the slot's own cache line), the arena's key column
// decides. Every tuple of a chain shares the key, so the head speaks
// for all of them.
func (h *HashIndex) holds(s dslot, tag uint32, key int64) bool {
	return s.tag == tag && h.arena.keyAt(int32(s.head-1)) == key
}

// oldFind returns the slot holding key in the draining directory, or
// nil. The old directory is frozen (no new keys), so its probe chains
// stay intact throughout the drain.
func (h *HashIndex) oldFind(tag uint32, key int64) *dslot {
	mask := uint32(len(h.old) - 1)
	i := tag >> (h.oldShift & 31)
	for {
		s := &h.old[i]
		if s.head == 0 {
			return nil
		}
		if h.holds(*s, tag, key) {
			return s
		}
		i = (i + 1) & mask
	}
}

// walkFrom continues a linear-probe walk of the new directory from slot
// i, falling back to the draining old directory on an empty slot, and
// returns the head link of key's chain (0 when the key is absent).
func (h *HashIndex) walkFrom(i, tag uint32, key int64) uint32 {
	for {
		s := h.slots[i]
		if s.head == 0 {
			break
		}
		if h.holds(s, tag, key) {
			return s.head
		}
		i = (i + 1) & h.mask
	}
	return h.oldHead(tag, key)
}

// oldHead is the fallback of a lookup that ended on an empty slot of
// the new directory: the head link of key's chain if the key is still
// resident in the draining directory, else 0.
func (h *HashIndex) oldHead(tag uint32, key int64) uint32 {
	if h.old != nil {
		if s := h.oldFind(tag, key); s != nil {
			return s.head
		}
	}
	return 0
}

// lookup returns the head link of key's chain — new directory first,
// then the draining old one — or 0.
func (h *HashIndex) lookup(tag uint32, key int64) uint32 {
	if h.used == 0 {
		return 0
	}
	return h.walkFrom(tag>>(h.shift&31), tag, key)
}

// chain prepends the tuple at off to the chain *s heads: its next link
// takes the old head (0 for a new key) and the slot points at it.
func (h *HashIndex) chain(s *dslot, off int32) {
	h.chains[off>>arenaShift][off&(arenaChunk-1)] = s.head
	s.head = uint32(off) + 1
}

// chainLookback bounds how far back syncChains looks for an earlier
// entry viewing the same shared block: windows of one block reach a
// joiner interleaved with at most one window per other reshuffler.
const chainLookback = 16

// syncChains gives every arena entry past the chain list its chain
// column: an earlier entry's when it views the same shared block, a
// spare one, or a fresh allocation.
func (h *HashIndex) syncChains() {
	for ci := len(h.chains); ci < len(h.arena.chunks); ci++ {
		h.chains = append(h.chains, h.chainFor(ci))
	}
}

// chainFor picks entry ci's chain column (see syncChains).
func (h *HashIndex) chainFor(ci int) *[arenaChunk]uint32 {
	if c := h.arena.chunks[ci].c; c.sharers != 0 {
		// A segment entry of the same block (nil) has no column to share.
		for k := ci - 1; k >= 0 && k >= ci-chainLookback; k-- {
			if h.arena.chunks[k].c == c && h.chains[k] != nil {
				return h.chains[k]
			}
		}
	}
	if n := len(h.spare); n > 0 {
		col := h.spare[n-1]
		h.spare = h.spare[:n-1]
		return col
	}
	h.nchains++
	return new([arenaChunk]uint32)
}

// appendTuple copies t into a private block and returns its offset,
// with the block's chain column in place.
func (h *HashIndex) appendTuple(t *Tuple) int32 {
	off := h.arena.append(t)
	if len(h.chains) < len(h.arena.chunks) {
		h.syncChains()
	}
	return off
}

// addWindow adds a view of the shared window w to the arena and
// returns the offset of its first row; row i is at that offset + i. It
// never extends an entry a segment serves (see segmentEntry).
func (h *HashIndex) addWindow(w Window) int32 {
	ci := h.arena.addWindow(w.c, w.lo, w.hi, !h.segmentEntry(len(h.arena.chunks)-1))
	if len(h.chains) <= ci {
		h.syncChains()
	}
	return int32(ci<<arenaShift) | w.lo
}

// segmentEntry reports whether arena entry ci holds rows a segment
// serves: such an entry has no chain column (takeWindow adds it
// without one), and the two kinds of rows never share an entry, so
// fold can tell which rows h's own directory lacks.
func (h *HashIndex) segmentEntry(ci int) bool {
	return ci >= 0 && ci < len(h.chains) && h.chains[ci] == nil
}

// windowed reports whether the rows of w can be added by reference:
// w names exactly the n tuples of the run, and the entry space has room.
func (h *HashIndex) windowed(w Window, n int) bool {
	return w.c != nil && w.Len() == n && len(h.arena.chunks) < maxSharedEntries
}

// insertOffset records key -> off in the slot directory, reusing the
// caller's tag (probe-then-insert steps hash each key exactly once).
func (h *HashIndex) insertOffset(tag uint32, key int64, off int32) {
	// Grow on distinct-key load: 3/4 of the directory. used counts keys
	// across both directories — exactly the population the new
	// directory must hold once the drain completes.
	if h.used >= len(h.slots)-len(h.slots)/4 {
		h.growTo(2 * len(h.slots))
	}
	if h.old != nil {
		h.migrate(rehashStep)
	}
	i := tag >> (h.shift & 31)
	for {
		s := &h.slots[i]
		if s.head == 0 {
			if h.old != nil {
				// Not in the new directory; the key may still be
				// resident in the draining one — prepend there in place,
				// the slot migrates later.
				if os := h.oldFind(tag, key); os != nil {
					h.chain(os, off)
					return
				}
			}
			s.tag = tag
			h.chain(s, off)
			h.used++
			return
		}
		if h.holds(*s, tag, key) {
			h.chain(s, off)
			return
		}
		i = (i + 1) & h.mask
	}
}

// Insert stores t under its key.
func (h *HashIndex) Insert(t Tuple) {
	off := h.appendTuple(&t)
	h.insertOffset(tagOf(t.Key), t.Key, off)
	h.bytes += t.Bytes()
}

// InsertBatch stores every tuple of ts.
func (h *HashIndex) InsertBatch(ts []Tuple) {
	var bytes int64
	for i := range ts {
		off := h.appendTuple(&ts[i])
		h.insertOffset(tagOf(ts[i].Key), ts[i].Key, off)
		bytes += ts[i].Bytes()
	}
	h.bytes += bytes
}

// InsertWindow stores the run ts whose columns were written into the
// shared window w (row i holding ts[i]): the arena gains a view of the
// window, and either a segment's watermark moves past it (takeWindow)
// or the directory and chain column are written. A window that does
// not name exactly ts stores a copy instead.
func (h *HashIndex) InsertWindow(ts []Tuple, w Window) {
	if h.takeWindow(ts, w) {
		return
	}
	if !h.windowed(w, len(ts)) {
		h.InsertBatch(ts)
		return
	}
	base := h.addWindow(w)
	var bytes int64
	for i := range ts {
		h.insertOffset(tagOf(ts[i].Key), ts[i].Key, base+int32(i))
		bytes += ts[i].Bytes()
	}
	h.bytes += bytes
}

// Reserve presizes the directory and the chain columns for about n
// stored tuples (assuming distinct keys — a safe overestimate for the
// directory). Ingest below the hint then does not rehash; the hint is
// clamped so a wild estimate costs bounded memory. No arena block is
// preallocated: the blocks come from appends or shared windows. An
// index a live segment serves reserves nothing: its slot's writer
// indexes the windows, and an empty presized directory would cost
// what sharing the index saves.
func (h *HashIndex) Reserve(n int) {
	if n <= 0 || h.serving() {
		return
	}
	if n > maxReserve {
		n = maxReserve
	}
	// The hint counts tuples; the directory holds distinct keys. Scale
	// by the observed distinct fraction once enough tuples have arrived
	// to trust it — presizing a duplicate-heavy index for one key per
	// tuple would spread a few hot slots over a mostly-empty directory,
	// wasting memory and cache reach.
	keys := n
	if h.arena.n >= 1024 {
		keys = int(int64(n) * int64(h.used) / int64(h.arena.n))
	}
	h.reserveSlots(keys)
	h.reserveChains(n)
}

// reserveSlots presizes only the directory, for n distinct keys under
// the 3/4 load threshold.
func (h *HashIndex) reserveSlots(n int) {
	target := minSlots
	for target-target/4 < n {
		target <<= 1
	}
	if target > len(h.slots) {
		h.growTo(target)
	}
}

// reserveChains stocks the chain columns, and room in the entry lists,
// that n stored tuples in full blocks need.
func (h *HashIndex) reserveChains(n int) {
	blocks := (n - h.arena.n + arenaChunk - 1) / arenaChunk
	for len(h.spare) < blocks {
		h.spare = append(h.spare, new([arenaChunk]uint32))
		h.nchains++
	}
	if want := len(h.arena.chunks) + blocks; want > cap(h.arena.chunks) {
		h.arena.chunks = append(make([]view, 0, want), h.arena.chunks...)
		h.chains = append(make([]*[arenaChunk]uint32, 0, want), h.chains...)
	}
}

// gather walks the chain starting at link head, appending each tuple's
// arena offset to hits, tagged with the probe index that matched and
// the stored tuple's meta word (see probeHit for why the gather pass
// reads the arena early). The next link is loaded before the meta word
// so the following hop's miss overlaps this one's.
func (h *HashIndex) gather(head uint32, probe int32, hits []probeHit) []probeHit {
	for head != 0 {
		off := int32(head - 1)
		ci, pos := off>>arenaShift, off&(arenaChunk-1)
		head = h.chains[ci][pos]
		hits = append(hits, probeHit{probe: probe, off: off, meta: h.arena.chunks[ci].c.meta[pos]})
	}
	return hits
}

// blockSource resolves the block of a probe hit's offset: an arena
// entry (tupleArena) or a slot index's block (slotTable).
type blockSource interface{ block(ci int32) *colChunk }

// materialize runs the gathered hits through the predicate, appending
// passing pairs to *out: the tight second loop of the batch probe,
// touching the arena columns only after all directory walking is done.
// Hits arrive grouped by probe (gather appends one probe's offsets
// contiguously), so the probe tuple loads once per group, not per hit;
// each candidate is materialized straight into the output Pair slot
// (truncated again if the predicate rejects it) instead of passing
// 64-byte tuples through an intermediate copy chain. A plain equi
// predicate short-circuits entirely: the directory's key confirm
// already guarantees key equality, leaving only the dummy flags to
// check.
func materialize[B blockSource](src B, ps []Tuple, hits []probeHit, rel matrix.Side, p Predicate, out *[]Pair) {
	plainEqui := p.Kind == Equi && p.Residual == nil
	buf := *out
	for i := 0; i < len(hits); {
		pi := hits[i].probe
		j := i + 1
		for j < len(hits) && hits[j].probe == pi {
			j++
		}
		probe := &ps[pi]
		if plainEqui && probe.Dummy {
			// The whole group is rejected without reading the arena.
			i = j
			continue
		}
		for k := i; k < j; k++ {
			if plainEqui && metaDummy(hits[k].meta) {
				// Rejected from the meta word captured at gather time:
				// a dummy hit never costs a materialization.
				continue
			}
			var pr *Pair
			var stored *Tuple
			buf, pr, stored = pairSlot(buf, probe, rel)
			off := hits[k].off
			src.block(off>>arenaShift).atIntoMeta(off&(arenaChunk-1), hits[k].meta, stored)
			if !plainEqui && !p.Matches(pr.R, pr.S) {
				buf = buf[:len(buf)-1]
			}
		}
		i = j
	}
	*out = buf
}

// pairSlot extends buf by one Pair, copies probe into the half rel
// names and returns the slot and its other half, for the caller to
// materialize the stored tuple into: the output step of every batch
// probe, with no intermediate tuple copy. The slot's stale contents
// are fully overwritten.
func pairSlot(buf []Pair, probe *Tuple, rel matrix.Side) ([]Pair, *Pair, *Tuple) {
	n := len(buf)
	if n < cap(buf) {
		buf = buf[:n+1]
	} else {
		buf = append(buf, Pair{})
	}
	pr := &buf[n]
	if rel == matrix.SideR {
		pr.R = *probe
		return buf, pr, &pr.S
	}
	pr.S = *probe
	return buf, pr, &pr.R
}

// putHits retires the gather scratch, capping the retained capacity.
func (h *HashIndex) putHits(hits []probeHit) {
	if cap(hits) > maxHitsCap {
		hits = nil
	}
	h.hits = hits[:0]
}

// Probe enumerates stored tuples with key equal to the probe's key:
// the segments' rows first, newest segment first, then the
// directory's; newest first within each, since every chain is
// prepended to. Order within a key is not part of any contract — the
// join's output is a pair multiset — and blocks adopted by MergeFrom
// are linked in block order whatever their tuples' original arrival
// order was.
func (h *HashIndex) Probe(probe Tuple, fn func(Tuple)) {
	tag := tagOf(probe.Key)
	for i := len(h.segs) - 1; i >= 0; i-- {
		r := h.segs[i].reader()
		home := tag >> (r.d.shift & 31)
		head := r.findFrom(home, atomic.LoadUint64(&r.d.slots[home]), tag, probe.Key)
		for _, hit := range r.gather(head, 0, h.hits[:0]) {
			fn(r.tbl[hit.off>>arenaShift].c.at(hit.off & (arenaChunk - 1)))
		}
	}
	for head := h.lookup(tag, probe.Key); head != 0; {
		off := int32(head - 1)
		ci, pos := off>>arenaShift, off&(arenaChunk-1)
		head = h.chains[ci][pos]
		fn(h.arena.chunks[ci].c.at(pos))
	}
}

// walkChunk is the width of the pipelined directory walk: a chunk's
// keys are all hashed and all their home slots loaded before the first
// one resolves, so up to walkChunk directory misses are in flight at
// once (memory-level parallelism) instead of each key's load stalling
// the next key's hash.
const walkChunk = 16

// walk is the one directory walk behind both batch entry points: it
// gathers into hits the chains of h that every non-dummy tuple of ts
// hits (dummies never match, so they are not looked up), and, when own
// is non-nil, stores each tuple into own right after its lookup — the
// fused probe-then-insert step of Local.AddBatchCollect. With a shared
// window w naming the run (Local.AddWindowCollect), the store adds a
// view of it and writes no columns; otherwise each tuple is copied into
// own's private blocks. own is the opposite relation's index, never h,
// so h is not mutated during the call. ts runs in chunks of up to
// walkChunk tuples, the last one simply shorter (no scalar remainder),
// each in four passes:
//
//  1. hash every key of the chunk (pure ALU, no memory dependence);
//  2. copy out each key's home slot in h — independent 8-byte loads
//     the core overlaps; h does not change during the call, so the
//     copies are safe to resolve from;
//  3. load each key's home slot in own, only to pull its cache line in:
//     an insert earlier in the chunk may fill such a slot, or grow
//     own's directory and move every slot, so the loaded values never
//     place a key (their sum goes to own.touch so the compiler keeps
//     the loads — Go has no prefetch intrinsic);
//  4. resolve each key in order: from the copied slot, an empty one is a
//     miss (or an old-directory fallback mid-rehash), a confirmed tag
//     match gathers at once, anything else walks on via walkFrom; then
//     insertOffset it into own, which walks own's live directory.
//
// Tuples of one relation never join each other, so probing the
// opposite side before each insert emits exactly the pairs the
// probe-all-then-insert-all form would.
func (h *HashIndex) walk(ts []Tuple, own *HashIndex, w Window, hits []probeHit) []probeHit {
	var (
		tags  [walkChunk]uint32
		first [walkChunk]dslot
		bytes int64
	)
	base := int32(-1)
	if own != nil && own.windowed(w, len(ts)) {
		base = own.addWindow(w)
	}
	probe := h.used != 0
	shift := h.shift & 31
	for i := 0; i < len(ts); i += walkChunk {
		chunk := ts[i:min(i+walkChunk, len(ts))]
		for k := range chunk {
			tags[k] = tagOf(chunk[k].Key)
		}
		if probe {
			for k := range chunk {
				first[k] = h.slots[tags[k]>>shift]
			}
		}
		if own != nil && len(own.slots) != 0 {
			var touch uint32
			for k := range chunk {
				touch += own.slots[tags[k]>>(own.shift&31)].head
			}
			own.touch = touch
		}
		for k := range chunk {
			t := &chunk[k]
			if probe && !t.Dummy {
				tag, s := tags[k], first[k]
				var head uint32
				switch {
				case s.head == 0:
					head = h.oldHead(tag, t.Key)
				case h.holds(s, tag, t.Key):
					head = s.head
				default:
					head = h.walkFrom((tag>>shift+1)&h.mask, tag, t.Key)
				}
				if head != 0 {
					hits = h.gather(head, int32(i+k), hits)
				}
			}
			if own != nil {
				var off int32
				if base >= 0 {
					off = base + int32(i+k)
				} else {
					off = own.appendTuple(t)
				}
				own.insertOffset(tags[k], t.Key, off)
				bytes += t.Bytes()
			}
		}
	}
	if own != nil {
		own.bytes += bytes
	}
	return hits
}

// ProbeBatchCollect probes every tuple of ps in order, appending
// oriented predicate-passing pairs to *out: the directory's pairs,
// then each segment's. Each source is processed in
// two phases: the pipelined directory walk (walk) collects (probe,
// arena offset) hits, then a materialize loop reads the arena columns
// and builds pairs — so directory cache lines and tuple columns each
// stream through once instead of alternating per match.
func (h *HashIndex) ProbeBatchCollect(ps []Tuple, rel matrix.Side, p Predicate, out *[]Pair) {
	if h.used != 0 {
		hits := h.walk(ps, nil, Window{}, h.hits[:0])
		materialize(&h.arena, ps, hits, rel, p, out)
		h.putHits(hits)
	}
	h.probeSegments(ps, rel, p, out)
}

// Len returns the number of stored tuples.
func (h *HashIndex) Len() int { return h.arena.n }

// Bytes returns the accounted stored volume.
func (h *HashIndex) Bytes() int64 { return h.bytes }

// Footprint reports the arena's blocks (a shared block's rows divided
// among its sharers) with the chain columns, and both directories
// while a rehash drains; each segment adds its share of its slot
// index's chain columns and directory.
func (h *HashIndex) Footprint() (arenaBytes, directoryBytes int64) {
	arenaBytes = h.arena.footprint() + int64(h.nchains)*chainBytes
	directoryBytes = int64(len(h.slots)+len(h.old)) * slotBytes
	for i := range h.segs {
		c, d := h.segs[i].share()
		arenaBytes += c
		directoryBytes += d
	}
	return arenaBytes, directoryBytes
}

// Scan visits all stored tuples.
func (h *HashIndex) Scan(fn func(Tuple) bool) { h.arena.scan(fn) }

// Retain drops the tuples whose u is outside keep: the u-column pass
// of tupleArena.retainTop copies the survivors into compact blocks,
// and the directory is rebuilt over them with MergeFrom's offset loop,
// in block order, so each key's chain keeps its order. Retain is the
// migration discard, run once every slot has moved to the new epoch,
// so it leaves an index that reads no segment: rebuilt, or with the
// segments folded into its directory when nothing is removed. Migration
// discards touch on the order of half the state, so the O(n) rebuild
// matches an in-place sweep; the directory is presized to the
// surviving key count so the rebuild performs no incremental growth.
func (h *HashIndex) Retain(keep matrix.Top) int {
	kept, removed, bytes := h.arena.retainTop(keep)
	if removed == 0 {
		// Common for the non-splitting relation: no rebuild, but the
		// rows the old epoch's segments served are indexed here now.
		h.fold()
		return 0
	}
	// At most the current distinct-key count survives (Reserve's own
	// distinct-fraction scaling cannot help here — fresh is empty).
	keys := min(h.keyCount(), kept.n, maxReserve)
	fresh := NewHashIndex()
	fresh.reserveSlots(keys)
	fresh.MergeFrom(&HashIndex{arena: kept, bytes: bytes})
	// The rebuild relocated every survivor: invalidate block-prefix
	// watermarks taken against the old arena.
	fresh.arena.mutGen = h.arena.mutGen + 1
	*h = *fresh
	return removed
}

// MergeFrom bulk-merges every tuple of o into h, consuming o (o must
// not be used afterward). The source arena entries are adopted
// wholesale — no tuple is copied, only the derived state is built:
// one pass over the adopted entries' key columns places each key's
// 8-byte slot and rewrites the chain columns in h's offset space (the
// donor's own columns, when it has them, are taken over and
// overwritten; a bare arena gets fresh ones) — which is what makes
// migration finalization, snapshot restore and block-frame adoption a
// directory rebuild instead of a full re-insert. The (entry,pos) offset
// encoding is what makes adoption unconditional: a partially filled
// view is addressable anywhere in the entry list, so neither arena
// needs to end on a block boundary, and either index may even be
// mid-rehash (h keeps draining incrementally; o's directories are
// simply dropped, and so are its segments: the rows they served are
// indexed in h's directory like the rest).
func (h *HashIndex) MergeFrom(o *HashIndex) {
	if o.arena.n == 0 {
		*o = HashIndex{}
		return
	}
	// Presize the directory (not the arena — its blocks arrive by
	// adoption) so the offset rebuild below rarely grows mid-loop.
	if n := h.used + o.used; n <= maxReserve {
		h.reserveSlots(n)
	}
	base := h.arena.adopt(&o.arena)
	if len(o.chains) == len(h.arena.chunks)-base {
		h.chains = append(h.chains, o.chains...)
		h.spare = append(h.spare, o.spare...)
		h.nchains += o.nchains
	}
	h.syncChains()
	for ci := base; ci < len(h.arena.chunks); ci++ {
		h.indexEntry(ci)
	}
	h.bytes += o.bytes
	*o = HashIndex{}
}

// indexEntry places every row of arena entry ci in h's own directory,
// giving the entry a chain column first when a segment served it.
func (h *HashIndex) indexEntry(ci int) {
	if h.chains[ci] == nil {
		h.chains[ci] = h.chainFor(ci)
	}
	v := h.arena.chunks[ci]
	for pos := v.lo; pos < v.hi; pos++ {
		key := v.c.key[pos]
		h.insertOffset(tagOf(key), key, int32(ci<<arenaShift)|pos)
	}
}

// fold indexes the rows h's segments serve in its own directory and
// drops the segments: once their slots stop writing (a migration moved
// every slot to a new epoch), a segment only adds a directory to every
// probe.
func (h *HashIndex) fold() {
	if len(h.segs) == 0 {
		return
	}
	h.reserveSlots(min(h.keyCount(), maxReserve))
	h.segs = nil
	for ci := range h.arena.chunks {
		if h.segmentEntry(ci) {
			h.indexEntry(ci)
		}
	}
}

// keyCount bounds the distinct keys h indexes: its own directory's
// plus those each segment's slot index published, which may count keys
// of rows past the segment's watermark.
func (h *HashIndex) keyCount() int {
	keys := h.used
	for i := range h.segs {
		keys += int(h.segs[i].ix.keys.Load())
	}
	return keys
}

// ScanIndex stores tuples in arrival order and matches every stored
// tuple on probe: the storage half of a nested-loop theta join. Joiners
// fall back to it for arbitrary predicates, where no index structure
// can restrict candidates.
type ScanIndex struct {
	arena tupleArena
	bytes int64
}

// NewScanIndex returns an empty scan index.
func NewScanIndex() *ScanIndex { return &ScanIndex{} }

// Insert appends t.
func (s *ScanIndex) Insert(t Tuple) {
	s.arena.append(&t)
	s.bytes += t.Bytes()
}

// InsertBatch appends every tuple of ts.
func (s *ScanIndex) InsertBatch(ts []Tuple) {
	for i := range ts {
		s.arena.append(&ts[i])
		s.bytes += ts[i].Bytes()
	}
}

// Reserve is a no-op: a scan index has no directory to presize and
// never preallocates arena blocks.
func (s *ScanIndex) Reserve(int) {}

// Probe enumerates every stored tuple: all are structural candidates
// under a theta predicate.
func (s *ScanIndex) Probe(_ Tuple, fn func(Tuple)) {
	s.arena.scan(func(t Tuple) bool { fn(t); return true })
}

// ProbeBatchCollect probes every tuple of ps in order, appending
// oriented predicate-passing pairs to *out: a plain nested loop over
// the arena blocks with no per-match callback.
func (s *ScanIndex) ProbeBatchCollect(ps []Tuple, rel matrix.Side, p Predicate, out *[]Pair) {
	for i := range ps {
		for _, v := range s.arena.chunks {
			for pos := v.lo; pos < v.hi; pos++ {
				collectPair(ps[i], v.c.at(pos), rel, p, out)
			}
		}
	}
}

// Len returns the number of stored tuples.
func (s *ScanIndex) Len() int { return s.arena.n }

// Bytes returns the accounted stored volume.
func (s *ScanIndex) Bytes() int64 { return s.bytes }

// Footprint reports the arena blocks; a scan index has no directory.
func (s *ScanIndex) Footprint() (arenaBytes, directoryBytes int64) {
	return s.arena.footprint(), 0
}

// Scan visits all stored tuples in insertion order.
func (s *ScanIndex) Scan(fn func(Tuple) bool) { s.arena.scan(fn) }

// Retain drops the tuples whose u is outside keep, rebuilding the
// arena compactly (tupleArena.retainTop). The counting pass reads only
// the u column, so the common nothing-removed case (the non-splitting
// relation of a migration) costs no allocation.
func (s *ScanIndex) Retain(keep matrix.Top) int {
	kept, removed, bytes := s.arena.retainTop(keep)
	if removed == 0 {
		return 0
	}
	// The rebuild relocated every survivor: invalidate block-prefix
	// watermarks taken against the old arena.
	kept.mutGen = s.arena.mutGen + 1
	s.arena, s.bytes = kept, bytes
	return removed
}

// MergeFrom bulk-merges every tuple of o into s by adopting its arena
// blocks, consuming o. Insertion order is preserved: o's tuples follow
// s's, exactly as a scan-and-insert merge would order them.
func (s *ScanIndex) MergeFrom(o *ScanIndex) {
	if o.arena.n == 0 {
		*o = ScanIndex{}
		return
	}
	s.arena.adopt(&o.arena)
	s.bytes += o.bytes
	*o = ScanIndex{}
}
