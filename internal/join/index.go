package join

import (
	"slices"
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

// probeHit is one gathered batch-probe candidate: which probe tuple of
// the run hit, the index position of the stored row it hit, and the
// stored row's packed meta word (its block's one word, or its meta
// column's). The directory walk (slotReader.walk) produces these; pair
// materialization consumes them in a tight second loop. Capturing meta
// during gather is the block-side analogue of the walk's chunked
// home-slot loads: the load pulls the hit's block header into cache
// while later probes are still walking the directory, so
// materialization's reads overlap with the gather instead of
// serializing behind it — and the captured word lets materialize
// reject dummy hits before touching the block's columns at all.
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
// a symmetric hash join [42]: an arena that stores the rows and a list
// of slot indexes (SlotIndex, slotindex.go) that index them. The arena
// holds only views of windows a BlockWriter published (shared.go): a
// grid line's or a worker's, shared with the other joiners of a grid
// row or column, or the index's own writer's, for every row it copies.
// The line's writer indexes its rows once in the line's slot index,
// which the index reads as of its own watermark (a segment), in every
// epoch; every other row — each copy, and each viewed window no live
// segment continues — goes into the index's own slot index, which its
// own writer keeps and a probe reads like any segment's, with no
// watermark. Each view names the slot index that indexes its rows.
//
// A migration narrows filters instead of copying: its discard (Retain)
// narrows the keep filter of every view and segment that holds a
// dropped row and freezes the store's own index into a segment, and its
// merges (MergeFrom) hand µ's and ∆′'s slot indexes over as they are,
// so a store after a few migrations reads its line's segment and frozen
// ones. A frozen segment carries a tag filter, so most probes of a key
// it lacks read nothing of its directory. One
// compaction rule bounds both costs, as an LSM tree's merges bound its
// runs (O'Neil et al., The Log-Structured Merge-Tree, 1996): a merge
// that would leave more than maxDirs slot indexes folds the frozen
// ones into one (compact), copying the views that keep under half their
// share of their block. A slot index is
// a directory of 8-byte tagged words, one per distinct key, over
// newest-first chains threaded through per-block chain columns. Nothing
// in it is a Go pointer but one per block: the collector traces one
// object per 512-tuple block, one per chain column and one per
// directory, never one per key, and a duplicate is stored by writing
// two words (its next link and the slot's head) with no list to regrow.
//
// Resident bytes per stored replica, mostly-distinct keys (the sparse
// equi-join: 125 k keys per side per joiner, directory load 0.48), for
// an index of its own writer's blocks (own: a copying store, or one
// slot reader), and on a (4,4) grid whose joiners view the line's
// blocks and index them in their own slot indexes (shared) or read the
// line's index (segment):
//
//	                    own       shared   segment (m = 4)
//	arena columns        24.0       6.0      6.0   (key, aux, seq; 24 / m)
//	block rounding        2.5       0.6      0.6   (12.1 KB in a 13.25 KB size class)
//	chain column          4.0       4.0      1.0   (per replica, or once per line)
//	views                 0.0     0-1.3    0-1.3   (40 B per window a block's next one does not extend)
//	directory            16.8      16.8      4.2   (slot bytes / load, per replica or once per line)
//	total                47.3      27.4     11.8
//
// The block header derives every row's u (zero, or UMix of its seed
// and the row's seq) and meta word; a block whose rows need them pays
// 8 B a row for an explicit u column and 8 B for a meta column
// (arena.go): 55.5 B for an own index of caller-set u values.
// TestHashIndexFootprintBudget measures 47.5, 27.5 and 11.9 B, the
// same with derived u values; BenchmarkRowInsertProbe measures the shared
// and segment columns on a whole grid with one writer per line ("own"
// and "slot"). With d duplicates per key the directory share divides by
// d (4.2 B at d = 4, for totals of 34.9, 14.9 and 8.8 B measured). What
// remains after this layout: the unfilled rows of each line's open
// shared block, and whatever headroom GOGC leaves on top of the live
// heap.
//
// Every directory grows by one rule: when the next distinct key would
// pass the 3/4 load, every word is re-placed into a directory twice the
// size (slotDir.grown). Nothing is presized.
type HashIndex struct {
	arena tupleArena
	// own writes every row the index copies rather than views, and
	// indexes it, with every viewed window no segment serves, in its
	// slot index own.ix.
	own   BlockWriter
	bytes int64
	// segs are the slot indexes that serve the arena's other views
	// (segment): line indexes, live or frozen, and frozen own indexes of
	// this store or of merged ones. A probe walks the own index, when it
	// holds any key, and each segment as of its watermark, through its
	// filters.
	segs []segment
	hits []probeHit // batch-probe gather scratch
}

// NewHashIndex returns an empty hash index.
func NewHashIndex() *HashIndex { return &HashIndex{own: BlockWriter{ix: newSlotIndex(1)}} }

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

// Insert stores t under its key.
func (h *HashIndex) Insert(t Tuple) { h.InsertWindow([]Tuple{t}, Window{}) }

// InsertBatch stores every tuple of ts.
func (h *HashIndex) InsertBatch(ts []Tuple) { h.InsertWindow(ts, Window{}) }

// InsertWindow stores the run ts whose columns were written into the
// window w (row i holding ts[i]; the zero Window when none was): as the
// continuation of a segment (takeWindow), else in the own index — a
// view of w when it names exactly ts, a copy through the own writer
// when it does not.
func (h *HashIndex) InsertWindow(ts []Tuple, w Window) {
	if !h.takeWindow(ts, w) {
		if h.arena.viewable(w, len(ts)) {
			h.own.view(&h.arena, w)
		} else {
			h.own.copyRun(&h.arena, ts)
		}
	}
	for i := range ts {
		h.bytes += ts[i].Bytes()
	}
}

// materialize runs the gathered hits through the predicate, appending
// passing pairs to *out: the tight second loop of the batch probe,
// touching the blocks of tbl, the walked index's table, only after all
// directory walking is done.
// Hits arrive grouped by probe (gather appends one probe's positions
// contiguously), so the probe tuple loads once per group, not per hit;
// each candidate is materialized straight into the output Pair slot
// (truncated again if the predicate rejects it) instead of passing
// 64-byte tuples through an intermediate copy chain. A plain equi
// predicate short-circuits entirely: the directory's key confirm
// already guarantees key equality, leaving only the dummy flags to
// check.
func materialize(tbl []slotEntry, ps []Tuple, hits []probeHit, rel matrix.Side, p Predicate, out *[]Pair) {
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
			// The whole group is rejected without reading a block.
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
			tbl[off>>arenaShift].c.atIntoMeta(off&(arenaChunk-1), hits[k].meta, stored)
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

// readers calls fn with a reader of each index that holds h's rows:
// the own index — skipped while it holds no key, so a store whose rows
// all sit in segments walks one directory per segment — then each
// segment's as of its watermark, through its filter.
func (h *HashIndex) readers(fn func(r slotReader)) {
	if h.own.ix.used != 0 {
		fn(h.own.ix.reader(allRows, keepSet{}))
	}
	for i := range h.segs {
		s := &h.segs[i]
		r := s.ix.reader(s.w, s.keep)
		r.filter = s.filter
		fn(r)
	}
}

// Probe enumerates stored tuples with key equal to the probe's key,
// index by index (see readers), newest first within each, since every
// chain is prepended to. Order within a key is not part of any
// contract — the join's output is a pair multiset.
func (h *HashIndex) Probe(probe Tuple, fn func(Tuple)) {
	tag := tagOf(probe.Key)
	h.readers(func(r slotReader) {
		if !r.mayHold(tag) {
			return
		}
		home := r.d.home(tag)
		head := r.findFrom(home, atomic.LoadUint64(&r.d.slots[home]), tag, probe.Key)
		for _, hit := range r.gather(head, 0, h.hits[:0]) {
			fn(r.tbl[hit.off>>arenaShift].c.at(hit.off & (arenaChunk - 1)))
		}
	})
}

// walkChunk is the width of the pipelined directory walk: a chunk's
// keys are all hashed and all their home slots loaded before the first
// one resolves, so up to walkChunk directory misses are in flight at
// once (memory-level parallelism) instead of each key's load stalling
// the next key's hash.
const walkChunk = 16

// ProbeBatchCollect probes every tuple of ps in order, appending
// oriented predicate-passing pairs to *out, index by index (see
// readers). Each index is processed in two phases: the pipelined
// directory walk (slotReader.walk) collects (probe, position) hits, then
// a materialize loop reads the block columns and builds pairs — so
// directory cache lines and tuple columns each stream through once
// instead of alternating per match.
func (h *HashIndex) ProbeBatchCollect(ps []Tuple, rel matrix.Side, p Predicate, out *[]Pair) {
	h.readers(func(r slotReader) {
		hits := r.walk(ps, h.hits[:0])
		materialize(r.tbl, ps, hits, rel, p, out)
		h.putHits(hits)
	})
}

// Len returns the number of stored tuples.
func (h *HashIndex) Len() int { return h.arena.n }

// Bytes returns the accounted stored volume.
func (h *HashIndex) Bytes() int64 { return h.bytes }

// Footprint reports the arena's blocks (a block's viewed rows divided
// among its sharers, filtered-out rows included) and entries with the
// own index's chain columns, and its directory; each segment adds its
// share of its line index's chain columns and directory.
func (h *HashIndex) Footprint() (arenaBytes, directoryBytes int64) {
	arenaBytes, directoryBytes = h.own.ix.share()
	arenaBytes += h.arena.footprint()
	for i := range h.segs {
		c, d := h.segs[i].ix.share()
		arenaBytes += c
		directoryBytes += d + h.segs[i].filter.bytes()
	}
	return arenaBytes, directoryBytes
}

// Scan visits all stored tuples.
func (h *HashIndex) Scan(fn func(Tuple) bool) { h.arena.scan(fn) }

// Retain drops the tuples whose u is outside keep by narrowing
// filters, copying and indexing nothing: each view that holds such a
// row narrows its filter (tupleArena.narrow), and so does each reader
// of the slot index that indexes it — a segment narrows its keep, and
// the own index, whose writer adds rows later that no filter may hide,
// becomes a frozen segment with keep and is replaced by an empty one.
// The cost is a u read per row of the views keep cuts, and nothing for
// the relation a migration does not split. Retain is the migration
// discard, run once every line the store reads has ended, so it
// freezes every segment (segment.freeze): a later window of its line
// goes to the own index. It moves mutGen when it drops anything, which
// makes the next checkpoint of the index full.
func (h *HashIndex) Retain(keep matrix.Top) int {
	for i := range h.segs {
		h.segs[i].freeze()
	}
	var lost []*SlotIndex
	removed, bytes := h.arena.narrow(keep, func(ix *SlotIndex) {
		if !slices.Contains(lost, ix) {
			lost = append(lost, ix)
		}
	})
	if removed == 0 {
		return 0
	}
	h.bytes -= bytes
	for i := range h.segs {
		if slices.Contains(lost, h.segs[i].ix) {
			h.segs[i].keep = h.segs[i].keep.meet(keep)
		}
	}
	if slices.Contains(lost, h.own.ix) {
		h.segs = append(h.segs, frozenSegment(h.own.ix, keepOf(keep)))
		h.own.ix = newSlotIndex(1)
	}
	return removed
}

// MergeFrom bulk-merges every tuple of o into h, consuming o (o must
// not be used afterward): migration finalization's hand-over of µ and
// ∆′. o's views join h's arena as they are, filters and all, and o's
// slot indexes join h's readers as they are, with nothing copied or
// re-indexed: each segment with its watermark — a ∆′ store's segment on
// a line of the new epoch stays live, so h continues that line's
// windows after the merge — and o's own index as a frozen segment.
// compact then bounds the indexes a probe walks. A donor with no slot
// index at all (a bare decoded arena: a snapshot record, a migration
// block frame) has its views indexed in h's own index instead, as
// AdoptBlocks does.
func (h *HashIndex) MergeFrom(o *HashIndex) {
	if o.own.ix == nil {
		for _, v := range o.arena.chunks {
			lo, hi := v.span()
			h.own.take(&h.arena, Window{c: v.c, lo: lo, hi: hi})
		}
		h.bytes += o.bytes
		*o = HashIndex{}
		return
	}
	h.arena.adopt(&o.arena)
	h.bytes += o.bytes
	if o.own.ix.used != 0 {
		h.segs = append(h.segs, frozenSegment(o.own.ix, keepSet{}))
	}
	h.segs = append(h.segs, o.segs...)
	*o = HashIndex{}
	h.compact()
}

// maxDirs bounds the slot indexes a probe of one store walks once a
// merge has compacted it.
const maxDirs = 3

// dirs counts the slot indexes a probe walks (readers).
func (h *HashIndex) dirs() int {
	n := len(h.segs)
	if h.own.ix.used != 0 {
		n++
	}
	return n
}

// compact is the index half of the compaction rule, as an LSM tree
// merges its frozen runs: when a probe would walk more than maxDirs
// slot indexes, the kept rows of the frozen segments are indexed into
// one fresh index, sized once for the distinct keys they bring (at most
// what each segment's directory holds, and at most the rows its views
// span), so no directory grows key by key, and that index replaces them
// as one frozen segment. The largest frozen segment stays out when its
// views span as many rows as the others' together and the bound allows
// it, so a row is indexed again a logarithmic number of times, not at
// every migration. The folded segments' views go through
// tupleArena.compactViews: a sparse one is copied through a writer of
// the new index, and every other one keeps its filter and has its kept
// rows indexed. A compaction that copies moves mutGen.
func (h *HashIndex) compact() {
	if h.dirs() <= maxDirs {
		return
	}
	var frozen []*SlotIndex
	for _, s := range h.segs {
		if !s.live {
			frozen = append(frozen, s.ix)
		}
	}
	if len(frozen) < 2 {
		// At most one frozen index beside live lines the store still
		// reads: nothing to fold.
		return
	}
	// Rows are counted by the views' spans, kept rows and those their
	// filters hide alike: a bound that reads no u.
	rows := make([]int, len(frozen))
	total := 0
	for _, v := range h.arena.chunks {
		if k := slices.Index(frozen, v.ix); k >= 0 {
			rows[k] += int(v.hi - v.lo)
			total += int(v.hi - v.lo)
		}
	}
	if big := slices.Index(rows, slices.Max(rows)); len(frozen) > 2 && 2*rows[big] >= total && h.dirs()-len(frozen)+2 <= maxDirs {
		frozen = slices.Delete(frozen, big, big+1)
		rows = slices.Delete(rows, big, big+1)
	}
	// A line's key count is its writer's; its directory, loaded
	// atomically, bounds it at 3/4 of its slots.
	keys := 0
	for k, ix := range frozen {
		keys += min(len(ix.dir.Load().slots)*3/4, rows[k])
	}
	x := newSlotIndex(1)
	x.setDir(newDir(keys))
	w := BlockWriter{ix: x}
	copied := h.arena.compactViews(&w, func(v *view) bool { return slices.Contains(frozen, v.ix) },
		func(v *view, rows []int32) {
			x.indexRows(v.c, rows)
			v.ix = x
		})
	if copied {
		h.arena.mutGen++
	}
	segs := h.segs[:0]
	for _, s := range h.segs {
		if !slices.Contains(frozen, s.ix) {
			segs = append(segs, s)
		}
	}
	clear(h.segs[len(segs):])
	h.segs = append(segs, frozenSegment(x, keepSet{}))
}

// ScanIndex stores tuples in arrival order and matches every stored
// tuple on probe: the storage half of a nested-loop theta join. Joiners
// fall back to it for arbitrary predicates, where no index structure
// can restrict candidates. Its arena holds views as a hash index's
// does: of the windows it is given, or of its own writer's copies.
type ScanIndex struct {
	arena tupleArena
	own   BlockWriter
	bytes int64
}

// NewScanIndex returns an empty scan index.
func NewScanIndex() *ScanIndex { return &ScanIndex{} }

// Insert appends t.
func (s *ScanIndex) Insert(t Tuple) { s.InsertWindow([]Tuple{t}, Window{}) }

// InsertBatch appends every tuple of ts.
func (s *ScanIndex) InsertBatch(ts []Tuple) { s.InsertWindow(ts, Window{}) }

// InsertWindow appends the run ts whose columns were written into the
// window w: a view of w when it names exactly ts and the entry space
// has room, else a copy written through the index's own writer.
func (s *ScanIndex) InsertWindow(ts []Tuple, w Window) {
	if s.arena.viewable(w, len(ts)) {
		s.own.view(&s.arena, w)
	} else {
		s.own.copyRun(&s.arena, ts)
	}
	for i := range ts {
		s.bytes += ts[i].Bytes()
	}
}

// Probe enumerates every stored tuple: all are structural candidates
// under a theta predicate.
func (s *ScanIndex) Probe(_ Tuple, fn func(Tuple)) {
	s.arena.scan(func(t Tuple) bool { fn(t); return true })
}

// ProbeBatchCollect probes every tuple of ps in order, appending
// oriented predicate-passing pairs to *out: a plain nested loop over
// the arena blocks' kept rows with no per-match callback.
func (s *ScanIndex) ProbeBatchCollect(ps []Tuple, rel matrix.Side, p Predicate, out *[]Pair) {
	for i := range ps {
		for _, v := range s.arena.chunks {
			lo, hi := v.span()
			for pos := lo; pos < hi; pos++ {
				if v.keep.all() || v.keep.has(v.c.uAt(pos)) {
					collectPair(ps[i], v.c.at(pos), rel, p, out)
				}
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

// Retain drops the tuples whose u is outside keep by narrowing the
// filters of the views that hold them (tupleArena.narrow), then applies
// the compaction rule to those views: a sparse one is copied through
// the index's own writer and dropped. The relation a migration does not
// split has no u read at all.
func (s *ScanIndex) Retain(keep matrix.Top) int {
	removed, bytes := s.arena.narrow(keep, nil)
	if removed == 0 {
		return 0
	}
	s.bytes -= bytes
	s.arena.compactViews(&s.own, func(v *view) bool { return !v.keep.all() }, nil)
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
