package join

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
)

// Checkpoint capture and serialization of the in-memory join state.
// The columnar arena is the unit of transfer: a colChunk is three
// parallel columns of machine words, a header that derives each row's
// u and meta word unless the block has columns for them, and an
// optional out-of-line payload column. A block serializes as five
// words per row, derived ones written out, and deserializes into a
// block of the header its rows need (recordShape), which can be adopted
// wholesale.
//
// A snapshot is taken in two steps. Capture runs on the owning
// goroutine at the checkpoint barrier and copies nothing but the entry
// list: it records the arena's views by value and seals the store's
// own writer (BlockWriter.seal). Rows inside a view never change, a
// sealed block's header never changes, and every writer, the store's
// own included, writes only past the rows it published, so the bytes a
// captured view names stay put while the block's writer keeps
// appending. Only an ordered index,
// whose tree has no frozen block prefix, is encoded on the spot. The owner then resumes mutating its indexes while any
// other goroutine sizes the capture exactly (Size) and writes it
// (AppendTo), typically straight into its slot of a preallocated
// checkpoint blob. On its own a capture writes each view as one block
// record. An operator checkpoint first collects the views of all its
// joiners' captures into a BlockTable: a block that two or more of them
// name is written once, as a table entry, and each view of it as a
// reference to that entry — a shared block is
// written once per checkpoint, not once per joiner that stores it.
//
// Restore writes the decoded rows of a store's own block records
// through the restored index's own writer, which packs a store's short
// windows into dense blocks. A table entry is decoded once, on the
// first install that names it, into one block that every restored
// joiner naming it views (SharedTable, LoadSharedChain), so the sharing
// survives a restore. The directory and the chain columns are rebuilt
// from their key columns as migration finalization does: derived state
// is never shipped — the
// snapshot carries tuple data only, so a format change in the derived
// state (slot layout, growth state, chains) can never invalidate a
// checkpoint; testdata/parent_* holds the proof for the last such
// change.
//
// Framing, CRCs, and manifest-level atomicity live one layer up in
// internal/storage; this file defines only the raw encoding of one
// Local's two indexes and of a checkpoint's block table entries.

// Snapshot index kinds. The kind byte records the concrete index type
// so a restore into a differently-predicated Local fails loudly
// instead of misinterpreting the column dump.
const (
	snapIdxHash    = 0 // HashIndex: arena blocks, directory rebuilt on load
	snapIdxScan    = 1 // ScanIndex: arena blocks, no directory
	snapIdxOrdered = 2 // OrderedIndex: tuples in key order, tree bulk-built on load
	// Delta kinds carry only arena blocks appended past a recorded
	// immutable-prefix watermark, plus the prefix they splice onto.
	// Ordered indexes never ship deltas: their tree interleaves with
	// tuple order, so there is no frozen block prefix to skip.
	snapIdxHashDelta = 3
	snapIdxScanDelta = 4
)

const (
	localSnapVersion = 1
	// localSnapVersionDelta marks a payload that may contain delta
	// index records and therefore only decodes stacked on its base
	// chain.
	localSnapVersionDelta = 2
)

func appendU8(b []byte, v uint8) []byte { return append(b, v) }

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// snapReader is a bounds-checked cursor over an encoded snapshot. All
// reads after the first failure return zero values; the error sticks,
// so decode loops stay linear and check once at the end.
type snapReader struct {
	data []byte
	off  int
	err  error
	// tab resolves the block references of a checkpoint payload; a
	// reader without one rejects every reference.
	tab *SharedTable
}

func (r *snapReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("join: snapshot truncated reading %s at offset %d", what, r.off)
	}
}

func (r *snapReader) u8(what string) uint8 {
	if r.err != nil || r.off+1 > len(r.data) {
		r.fail(what)
		return 0
	}
	v := r.data[r.off]
	r.off++
	return v
}

func (r *snapReader) u32(what string) uint32 {
	if r.err != nil || r.off+4 > len(r.data) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *snapReader) u64(what string) uint64 {
	if r.err != nil || r.off+8 > len(r.data) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

func (r *snapReader) bytes(n int, what string) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.data) {
		r.fail(what)
		return nil
	}
	v := r.data[r.off : r.off+n]
	r.off += n
	return v
}

// appendArena encodes every non-empty entry of a: a block count, then
// each entry as appendBlock frames it.
func appendArena(buf []byte, a *tupleArena) []byte {
	n := 0
	for _, v := range a.chunks {
		if v.hi > v.lo {
			n++
		}
	}
	buf = appendU32(buf, uint32(n))
	for _, v := range a.chunks {
		if v.hi > v.lo {
			buf = appendBlock(buf, v)
		}
	}
	return buf
}

// tupleBytes is one stored tuple's five columns on the wire.
const tupleBytes = 5 * 8

// blockSize is the exact length appendBlock writes for v: O(1) from
// v's kept-row count, plus a length read per kept row of a block that
// carries payloads.
func blockSize(v view) int {
	n := 4 + 1 + tupleBytes*int(v.n)
	if v.c.payload != nil {
		var buf [arenaChunk]int32
		for _, pos := range v.rows(&buf) {
			n += 4 + len(v.c.payload[pos])
		}
	}
	return n
}

// Block-record flag values: the byte after the fill level.
const (
	blockPlain   = 0 // the rows' five columns
	blockPayload = 1 // the columns, then each row's payload
	blockRef     = 2 // a reference to rows of a block table entry
)

// refSize is the length of a reference record: the fill level, the
// flag, the table entry and the first row.
const refSize = 4 + 1 + 4 + 4

// appendBlock encodes one non-empty view as a block: the fill level, a
// payload-presence flag, the five columns of each tuple as
// little-endian words — u and meta as the block's header derives them
// when it has no column for them — and the payload bytes when present.
// A filtered view writes the rows its filter keeps, so a record never
// holds a row a discard dropped and the format has no filter in it.
func appendBlock(buf []byte, v view) []byte {
	var rbuf [arenaChunk]int32
	rows := v.rows(&rbuf)
	c, fill := v.c, len(rows)
	buf = appendU32(buf, uint32(fill))
	hasPayload := uint8(blockPlain)
	if c.payload != nil {
		hasPayload = blockPayload
	}
	buf = appendU8(buf, hasPayload)
	off := len(buf)
	buf = slices.Grow(buf, tupleBytes*fill)[:off+tupleBytes*fill]
	w := buf[off:]
	var ubuf [arenaChunk]uint64
	lo, hi := v.span()
	us := c.uRows(lo, hi, &ubuf)
	for i, pos := range rows {
		t := w[i*tupleBytes : i*tupleBytes+tupleBytes]
		binary.LittleEndian.PutUint64(t[0:], uint64(c.key[pos]))
		binary.LittleEndian.PutUint64(t[8:], uint64(c.aux[pos]))
		binary.LittleEndian.PutUint64(t[16:], us[pos-lo])
		binary.LittleEndian.PutUint64(t[24:], c.seq[pos])
		binary.LittleEndian.PutUint64(t[32:], c.metaAt(pos))
	}
	if hasPayload == blockPayload {
		for _, pos := range rows {
			buf = appendU32(buf, uint32(len(c.payload[pos])))
			buf = append(buf, c.payload[pos]...)
		}
	}
	return buf
}

// appendRef encodes v, a view of the block of table entry e, as a
// reference to its rows.
func appendRef(buf []byte, v view, e int32) []byte {
	buf = appendU32(buf, uint32(v.hi-v.lo))
	buf = appendU8(buf, blockRef)
	buf = appendU32(buf, uint32(e))
	return appendU32(buf, uint32(v.lo))
}

// blockRecord is one block record appendArena wrote, checked against
// the input and not yet decoded: its rows' five little-endian columns
// and, when the block had a payload column (payloads is non-nil), each
// row's payload as a u32 length and its bytes. A reference record has
// no bytes of its own: it names rows [lo, hi) of the block of a table
// entry (shared), in that block's row numbering.
type blockRecord struct {
	cols, payloads []byte
	shared         *sharedEntry
	lo, hi         int32
}

// readBlock reads one block record, checking it against the input and
// a reference against r's table.
func readBlock(r *snapReader) (rec blockRecord, fill int) {
	fill = int(r.u32("chunk fill"))
	flag := r.u8("payload flag")
	if r.err != nil {
		return rec, 0
	}
	if fill <= 0 || fill > arenaChunk || flag > blockRef {
		r.err = fmt.Errorf("join: snapshot block has invalid fill %d or flag %d", fill, flag)
		return rec, 0
	}
	if flag == blockRef {
		e, lo := r.u32("table entry"), r.u32("reference row")
		switch {
		case r.err != nil:
		case r.tab == nil:
			r.err = fmt.Errorf("join: snapshot block references table entry %d without a block table", e)
		case int64(e) >= int64(len(r.tab.entries)):
			r.err = fmt.Errorf("join: snapshot block references table entry %d of %d", e, len(r.tab.entries))
		default:
			se := r.tab.entries[e]
			if int64(lo) < int64(se.lo) || int64(lo)+int64(fill) > int64(se.hi) {
				r.err = fmt.Errorf("join: snapshot block references rows [%d, %d) of table entry %d, which holds [%d, %d)",
					lo, int64(lo)+int64(fill), e, se.lo, se.hi)
			}
			rec = blockRecord{shared: se, lo: int32(lo), hi: int32(lo) + int32(fill)}
		}
		return rec, fill
	}
	rec.cols = r.bytes(fill*tupleBytes, "block columns")
	if flag == blockPayload {
		start := r.off
		for pos := 0; pos < fill; pos++ {
			r.bytes(int(r.u32("payload length")), "payload bytes")
		}
		rec.payloads = r.data[start:r.off]
	}
	return rec, fill
}

// readBlocks reads the block records appendArena wrote, checking each
// against the input, and returns them undecoded with their row count:
// a restore splices the records of a delta chain before it decodes the
// ones that survive (spliceChain, writeBlocks).
func readBlocks(r *snapReader) (recs []blockRecord, n int) {
	nChunks := int(r.u32("chunk count"))
	for ci := 0; ci < nChunks && r.err == nil; ci++ {
		rec, fill := readBlock(r)
		if r.err != nil {
			break
		}
		recs = append(recs, rec)
		n += fill
	}
	return recs, n
}

// recordShape is the shape of the rows of cols, a block record's
// five-word rows, in a block with a payload column when payload: the u
// rule is inferred from the first row (seedOf) and every row is tested
// against it once, as runShape tests a run.
func recordShape(cols []byte, payload bool) rowShape {
	if len(cols) < tupleBytes {
		return rowShape{payload: payload}
	}
	sh := rowShape{payload: payload, meta: binary.LittleEndian.Uint64(cols[32:])}
	if u := binary.LittleEndian.Uint64(cols[16:]); u != 0 {
		sh.derived, sh.seed = true, seedOf(u, binary.LittleEndian.Uint64(cols[24:]))
	}
	var uDiff, metaDiff uint64
	for t := cols; len(t) >= tupleBytes; t = t[tupleBytes:] {
		u, seq := binary.LittleEndian.Uint64(t[16:]), binary.LittleEndian.Uint64(t[24:])
		if sh.derived {
			u ^= UMix(sh.seed, seq)
		}
		uDiff |= u
		metaDiff |= binary.LittleEndian.Uint64(t[32:]) ^ sh.meta
	}
	sh.uCol, sh.metaCol = uDiff != 0, metaDiff != 0
	return sh
}

// decodeRow writes one row — its five columns t and, when p is
// non-nil, the payload p starts with — as row pos of c, whose header
// holds the row's shape, and returns the rest of p.
func decodeRow(c *colChunk, pos int32, t, p []byte) []byte {
	c.key[pos] = int64(binary.LittleEndian.Uint64(t[0:]))
	c.aux[pos] = int64(binary.LittleEndian.Uint64(t[8:]))
	c.seq[pos] = binary.LittleEndian.Uint64(t[24:])
	if c.u != nil {
		c.u[pos] = binary.LittleEndian.Uint64(t[16:])
	}
	if c.meta != nil {
		c.meta[pos] = binary.LittleEndian.Uint64(t[32:])
	}
	if p == nil {
		return nil
	}
	ln := int(binary.LittleEndian.Uint32(p))
	if ln > 0 {
		c.payload[pos] = append([]byte(nil), p[4:4+ln]...)
	}
	return p[4+ln:]
}

// writeBlocks decodes the rows of recs through w into a, in order: a
// record asks for the shape of its rows (recordShape), a payload column
// among it when its block had one. A reference record adds its table
// entry's block through w instead (BlockWriter.take). A writer that
// keeps an index indexes every row.
func writeBlocks(recs []blockRecord, w *BlockWriter, a *tupleArena) {
	for _, rec := range recs {
		if rec.shared != nil {
			w.take(a, Window{c: rec.shared.block(), lo: rec.lo, hi: rec.hi})
			continue
		}
		sh := recordShape(rec.cols, rec.payloads != nil)
		p := rec.payloads
		for i := 0; i < len(rec.cols)/tupleBytes; i++ {
			c, pos := w.next(a, sh)
			p = decodeRow(c, pos, rec.cols[i*tupleBytes:(i+1)*tupleBytes], p)
		}
	}
	w.flush(a)
}

// appendOrdered encodes an ordered (band) index as its tuples in Scan
// order — key order, ties in insertion order — which is exactly the
// stream the restore side's bulk build takes: the complete side
// record, kind byte included.
func appendOrdered(buf []byte, idx Index) []byte {
	buf = appendU8(buf, snapIdxOrdered)
	buf = appendU32(buf, uint32(idx.Len()))
	idx.Scan(func(t Tuple) bool {
		buf = appendTuple(buf, t)
		return true
	})
	return buf
}

// appendTuple encodes one tuple for the per-tuple fallback path.
func appendTuple(buf []byte, t Tuple) []byte {
	buf = appendU64(buf, uint64(t.Key))
	buf = appendU64(buf, uint64(t.Aux))
	buf = appendU64(buf, t.U)
	buf = appendU64(buf, t.Seq)
	buf = appendU64(buf, t.metaWord())
	buf = appendU32(buf, uint32(len(t.Payload)))
	buf = append(buf, t.Payload...)
	return buf
}

// readTuple decodes one fallback tuple.
func readTuple(r *snapReader) Tuple {
	var t Tuple
	t.Key = int64(r.u64("tuple key"))
	t.Aux = int64(r.u64("tuple aux"))
	t.U = r.u64("tuple u")
	t.Seq = r.u64("tuple seq")
	m := r.u64("tuple meta")
	ln := int(r.u32("tuple payload length"))
	p := r.bytes(ln, "tuple payload")
	if r.err != nil {
		return t
	}
	t.setMeta(m)
	if ln > 0 {
		t.Payload = append([]byte(nil), p...)
	}
	return t
}

// IndexWatermark names the frozen block prefix of one index at
// snapshot time: a later delta snapshot ships only chunks at indexes
// >= Chunks, provided the index kind and arena mutation generation
// still match (a discard that narrows a filter, or a compaction that
// copies, changes what entries hold and bumps MutGen, invalidating the
// watermark).
type IndexWatermark struct {
	Kind   uint8
	MutGen uint64
	Chunks uint32
}

// LocalWatermark is the per-side watermark pair for one Local.
type LocalWatermark struct {
	R, S IndexWatermark
}

func indexWatermark(idx Index) IndexWatermark {
	switch v := idx.(type) {
	case *HashIndex:
		return IndexWatermark{Kind: snapIdxHash, MutGen: v.arena.mutGen, Chunks: uint32(v.arena.immutablePrefix())}
	case *ScanIndex:
		return IndexWatermark{Kind: snapIdxScan, MutGen: v.arena.mutGen, Chunks: uint32(v.arena.immutablePrefix())}
	default:
		return IndexWatermark{Kind: snapIdxOrdered}
	}
}

// LocalCapture is one Local's state frozen at a checkpoint barrier by
// Capture, held mostly by reference (see the file comment). It stays
// valid while its owner keeps appending; it must be encoded before the
// owner next runs Retain.
type LocalCapture struct {
	version uint8
	r, s    sideCapture
}

// sideCapture is one index's share of a capture: for arena-backed
// kinds the index's byte volume and the non-empty views past the delta
// prefix, by value; for an ordered index the complete encoded side
// record.
type sideCapture struct {
	kind   uint8
	bytes  int64
	prefix uint32 // delta kinds: the entry index the blocks splice at
	chunks []view
	// frozen is the entry list below the delta prefix (nil in a full
	// capture): the views a full record of the same state would write
	// ahead of chunks. They are frozen, so the capture shares them with
	// the live arena instead of copying them.
	frozen []view
	enc    []byte
	// full is the exact length of a full record of the same state: what
	// this side would encode to had the capture been taken without a
	// watermark.
	full int
}

// captureSide freezes one index, as a delta past wm when wm still names
// this arena's frozen prefix (nil wm: full), and reports whether the
// record is a delta. A view names rows that never change (see the file
// comment), so copying the entry list is the capture; no entry is ever
// empty, so an entry index means the same thing in the live list and
// the serialized one.
func captureSide(idx Index, wm *IndexWatermark) (sideCapture, bool) {
	cur := indexWatermark(idx)
	delta := wm != nil && wm.Kind == cur.Kind && wm.MutGen == cur.MutGen && wm.Chunks <= cur.Chunks
	var a *tupleArena
	var c sideCapture
	var deltaKind uint8
	switch v := idx.(type) {
	case *HashIndex:
		a, c.bytes, c.kind, deltaKind = &v.arena, v.bytes, snapIdxHash, snapIdxHashDelta
		v.own.seal()
	case *ScanIndex:
		a, c.bytes, c.kind, deltaKind = &v.arena, v.bytes, snapIdxScan, snapIdxScanDelta
		v.own.seal()
	default:
		enc := appendOrdered(nil, idx)
		return sideCapture{kind: snapIdxOrdered, enc: enc, full: len(enc)}, false
	}
	c.full = fullArenaSize(a)
	if !delta {
		c.chunks = slices.Clone(a.chunks)
		return c, false
	}
	c.kind, c.prefix = deltaKind, wm.Chunks
	c.frozen = a.chunks[:wm.Chunks:wm.Chunks]
	c.chunks = slices.Clone(a.chunks[wm.Chunks:])
	return c, true
}

// Capture freezes both sides for a snapshot that ships only blocks
// appended since wm was taken, where possible. A nil wm captures a full
// snapshot; a watermark invalidated by a rebuild degrades that side to
// a full record. The work is O(blocks) (an ordered side is encoded in
// full). The returned watermark is
// what the next delta should be taken against — but only once the
// snapshot encoded from this capture has durably committed, or the
// chain on disk would have a hole. delta reports whether any side is a
// delta record; when false the payload is self-contained.
func (l *Local) Capture(wm *LocalWatermark) (c LocalCapture, next LocalWatermark, delta bool) {
	next = LocalWatermark{R: indexWatermark(l.r), S: indexWatermark(l.s)}
	if wm == nil {
		c.version = localSnapVersion
		c.r, _ = captureSide(l.r, nil)
		c.s, _ = captureSide(l.s, nil)
		return c, next, false
	}
	c.version = localSnapVersionDelta
	var dr, ds bool
	c.r, dr = captureSide(l.r, &wm.R)
	c.s, ds = captureSide(l.s, &wm.S)
	return c, next, dr || ds
}

// fullArenaSize is the exact length of a full side record of a's
// blocks: O(views), plus a length read per kept row in blocks that
// carry payloads (blockSize).
func fullArenaSize(a *tupleArena) int {
	n := 1 + 8 + 4 // kind, byte volume, block count
	for _, v := range a.chunks {
		if v.hi > v.lo {
			n += blockSize(v)
		}
	}
	return n
}

// size is the exact length appendTo writes.
func (c *sideCapture) size(t *BlockTable) int {
	if c.kind == snapIdxOrdered {
		return len(c.enc)
	}
	n := 1 + 8 + 4 // kind, byte volume, block count
	if c.kind >= snapIdxHashDelta {
		n += 4 // prefix
	}
	return n + viewsSize(c.chunks, t.shipped(c))
}

// fullSize is the exact length of a full record of the captured state
// in a checkpoint with block table t, built over full views.
func (c *sideCapture) fullSize(t *BlockTable) int {
	refs := t.whole(c)
	if refs == nil {
		return c.full
	}
	n := 1 + 8 + 4 // kind, byte volume, block count
	return n + viewsSize(c.frozen, refs) + viewsSize(c.chunks, refs[len(c.frozen):])
}

// viewsSize is the length of the block records of vs, view i a
// reference when refs[i] names a table entry.
func viewsSize(vs []view, refs []int32) int {
	n := 0
	for i, v := range vs {
		if refs != nil && refs[i] >= 0 {
			n += refSize
		} else {
			n += blockSize(v)
		}
	}
	return n
}

// appendTo encodes the side record, each view of a block t tables as a
// reference.
func (c *sideCapture) appendTo(buf []byte, t *BlockTable) []byte {
	if c.kind == snapIdxOrdered {
		return append(buf, c.enc...)
	}
	buf = appendU8(buf, c.kind)
	buf = appendU64(buf, uint64(c.bytes))
	if c.kind >= snapIdxHashDelta {
		buf = appendU32(buf, c.prefix)
	}
	buf = appendU32(buf, uint32(len(c.chunks)))
	refs := t.shipped(c)
	for i, v := range c.chunks {
		if refs != nil && refs[i] >= 0 {
			buf = appendRef(buf, v, refs[i])
		} else {
			buf = appendBlock(buf, v)
		}
	}
	return buf
}

// Size is the exact length AppendTo writes with block table t: callers
// encoding into a preallocated buffer size it once, up front.
func (c *LocalCapture) Size(t *BlockTable) int { return 1 + c.r.size(t) + c.s.size(t) }

// FullSize is the exact length AppendTo would write had the capture
// been full (Capture(nil) at the same barrier): the live bytes a delta
// chain ending in this capture has to carry at the least. It encodes
// nothing. A non-nil t must have been built over full views
// (NewBlockTable): each view of a block t tables then counts as a
// reference, the block's bytes counting once, in the table.
func (c *LocalCapture) FullSize(t *BlockTable) int { return 1 + c.r.fullSize(t) + c.s.fullSize(t) }

// AppendTo encodes the captured state onto buf — the snapshot payload
// of the Local as it stood at capture time — and returns the extended
// slice, every view of a block t tables written as a reference to its
// entry (nil t: every view written whole). It only reads the capture,
// so it may run on any goroutine while the captured Local keeps taking
// appends.
func (c *LocalCapture) AppendTo(buf []byte, t *BlockTable) []byte {
	buf = appendU8(buf, c.version)
	buf = c.r.appendTo(buf, t)
	return c.s.appendTo(buf, t)
}

// BlockTable is the block table of one operator checkpoint: every
// block that the views of two or more of its joiners' captures name,
// each once, over the union of the rows they name. A checkpoint writes
// each entry once and each view of a tabled block as a reference, so a
// block the joiners of a grid row share costs its bytes once, not once
// per joiner. The table resolves block identity once, when it is built:
// it keeps, per captured side, the entry each view references. It only
// reads the captures, so it may be built and used on any goroutine,
// like AppendTo. The nil table tables nothing.
type BlockTable struct {
	entries []view
	// sides maps each side capture the table was built over to the entry
	// of each of its views, in order (-1: the view stays inline). The
	// list covers the side's frozen views too when the table is full.
	sides map[*sideCapture][]int32
	full  bool
}

// shipped returns the entries of the views c ships (its chunks), or nil
// when t resolves none of them: t is nil, or c is not among the
// captures it was built over.
func (t *BlockTable) shipped(c *sideCapture) []int32 {
	if t == nil {
		return nil
	}
	refs := t.sides[c]
	if t.full && refs != nil {
		refs = refs[len(c.frozen):]
	}
	return refs
}

// whole returns the entries of every view of a full record of c, its
// frozen views first, or nil unless t is a full table that resolves c.
func (t *BlockTable) whole(c *sideCapture) []int32 {
	if t == nil || !t.full {
		return nil
	}
	return t.sides[c]
}

// NewBlockTable tables the blocks that two or more of caps name in the
// views they write — every view of a full record of their state when
// full — in order of first appearance, and returns nil when no block is
// shared. A block one capture names in several views stays that
// capture's own.
func NewBlockTable(caps []*LocalCapture, full bool) *BlockTable {
	type use struct {
		c      *colChunk
		lo, hi int16
		names  int32
		last   int // 1 + the index of the last capture naming the block
	}
	var (
		at   = make(map[*colChunk]int32)
		uses []use
		// A side's views alternate between the open blocks of a few slot
		// writers: the last two blocks looked up skip most map lookups.
		memo [2]struct {
			c *colChunk
			k int32
		}
	)
	sides := make(map[*sideCapture][]int32, 2*len(caps))
	name := func(refs []int32, vs []view, ci int) []int32 {
		for _, v := range vs {
			if !v.keep.all() {
				// A filtered view is written as its kept rows, inline.
				refs = append(refs, -1)
				continue
			}
			var k int32
			switch v.c {
			case memo[0].c:
				k = memo[0].k
			case memo[1].c:
				k = memo[1].k
			default:
				var ok bool
				if k, ok = at[v.c]; !ok {
					k = int32(len(uses))
					at[v.c] = k
					uses = append(uses, use{c: v.c, lo: v.lo, hi: v.hi})
				}
				memo[1], memo[0] = memo[0], memo[1]
				memo[0].c, memo[0].k = v.c, k
			}
			u := &uses[k]
			u.lo, u.hi = min(u.lo, v.lo), max(u.hi, v.hi)
			if u.last != ci {
				u.last = ci
				u.names++
			}
			refs = append(refs, k)
		}
		return refs
	}
	for i, c := range caps {
		for _, sc := range [2]*sideCapture{&c.r, &c.s} {
			if sc.kind == snapIdxOrdered {
				continue
			}
			refs := make([]int32, 0, len(sc.frozen)+len(sc.chunks))
			if full {
				refs = name(refs, sc.frozen, i+1)
			}
			sides[sc] = name(refs, sc.chunks, i+1)
		}
	}
	t := &BlockTable{sides: sides, full: full}
	entry := make([]int32, len(uses))
	for k, u := range uses {
		entry[k] = -1
		if u.names >= 2 {
			entry[k] = int32(len(t.entries))
			t.entries = append(t.entries, view{c: u.c, lo: u.lo, hi: u.hi, n: u.hi - u.lo})
		}
	}
	if len(t.entries) == 0 {
		return nil
	}
	for _, refs := range sides {
		for i, k := range refs {
			if k >= 0 {
				refs[i] = entry[k]
			}
		}
	}
	return t
}

// Len reports the table's entries.
func (t *BlockTable) Len() int {
	if t == nil {
		return 0
	}
	return len(t.entries)
}

// EntrySize is the exact length AppendEntry writes for entry i.
func (t *BlockTable) EntrySize(i int) int { return 4 + blockSize(t.entries[i]) }

// AppendEntry encodes entry i onto buf: the row its rows start at, then
// its rows as one block record.
func (t *BlockTable) AppendEntry(buf []byte, i int) []byte {
	v := t.entries[i]
	return appendBlock(appendU32(buf, uint32(v.lo)), v)
}

// sideSnap is one parsed index record of a snapshot payload, full or
// delta, held as checked, undecoded block records so a chain of
// payloads can be spliced before any index is built.
type sideSnap struct {
	kind   uint8
	bytes  int64
	prefix int
	blocks []blockRecord
	tuples []Tuple
}

func parseSide(r *snapReader) (sideSnap, error) {
	var s sideSnap
	s.kind = r.u8("index kind")
	if r.err != nil {
		return s, r.err
	}
	switch s.kind {
	case snapIdxHash, snapIdxScan:
		s.bytes = int64(r.u64("index bytes"))
		s.blocks, _ = readBlocks(r)
	case snapIdxHashDelta, snapIdxScanDelta:
		s.bytes = int64(r.u64("index bytes"))
		s.prefix = int(r.u32("delta prefix"))
		s.blocks, _ = readBlocks(r)
	case snapIdxOrdered:
		n := int(r.u32("tuple count"))
		for i := 0; i < n && r.err == nil; i++ {
			t := readTuple(r)
			if r.err == nil {
				s.tuples = append(s.tuples, t)
			}
		}
	default:
		return s, fmt.Errorf("join: snapshot has unknown index kind %d", s.kind)
	}
	return s, r.err
}

// parseLocalPayload decodes one payload written by LocalCapture.AppendTo
// into its two side records, resolving its references in tab (nil: a
// payload written without a block table). The payload is
// self-delimiting, so bytes past its end mean the framing around it is
// wrong.
func parseLocalPayload(data []byte, tab *SharedTable) (r, s sideSnap, err error) {
	rd := &snapReader{data: data, tab: tab}
	v := rd.u8("snapshot version")
	if rd.err == nil && v != localSnapVersion && v != localSnapVersionDelta {
		return r, s, fmt.Errorf("join: unsupported local snapshot version %d", v)
	}
	if r, err = parseSide(rd); err != nil {
		return r, s, err
	}
	if s, err = parseSide(rd); err != nil {
		return r, s, err
	}
	if v == localSnapVersion && (r.kind >= snapIdxHashDelta || s.kind >= snapIdxHashDelta) {
		return r, s, fmt.Errorf("join: version-1 snapshot contains delta records")
	}
	if rd.off != len(data) {
		return r, s, fmt.Errorf("join: snapshot has %d trailing bytes", len(data)-rd.off)
	}
	return r, s, nil
}

// spliceChain folds a base-first chain of side records into one
// resolved record: the newest full record's blocks, with each later
// delta replacing everything past its recorded prefix. The result is
// exactly the block list a full snapshot taken at the newest record's
// time would have carried.
func spliceChain(chain []sideSnap) (sideSnap, error) {
	base := -1
	for i := len(chain) - 1; i >= 0; i-- {
		if k := chain[i].kind; k == snapIdxHash || k == snapIdxScan || k == snapIdxOrdered {
			base = i
			break
		}
	}
	if base < 0 {
		return sideSnap{}, fmt.Errorf("join: snapshot chain has no full record")
	}
	cur := chain[base]
	if cur.kind == snapIdxOrdered {
		if base != len(chain)-1 {
			return sideSnap{}, fmt.Errorf("join: delta records follow an ordered-index snapshot")
		}
		return cur, nil
	}
	wantDelta := uint8(snapIdxHashDelta)
	if cur.kind == snapIdxScan {
		wantDelta = snapIdxScanDelta
	}
	for i := base + 1; i < len(chain); i++ {
		d := chain[i]
		if d.kind != wantDelta {
			return sideSnap{}, fmt.Errorf("join: chain record %d has kind %d, cannot extend kind %d", i, d.kind, cur.kind)
		}
		if d.prefix < 0 || d.prefix > len(cur.blocks) {
			return sideSnap{}, fmt.Errorf("join: chain record %d splices at chunk %d of %d", i, d.prefix, len(cur.blocks))
		}
		cur.blocks = append(slices.Clip(cur.blocks[:d.prefix]), d.blocks...)
		cur.bytes = d.bytes
	}
	return cur, nil
}

// installSide installs a resolved side record into idx, which must be
// empty: arena-backed kinds decode the blocks through their own writer
// (writeBlocks), which for a hash index indexes every row in its own
// slot index, exactly like a migration-finalization merge; an ordered
// record, whose tuples arrive in key order, through the tree's
// left-to-right bulk build.
func installSide(idx Index, rec sideSnap) error {
	switch rec.kind {
	case snapIdxHash:
		h, ok := idx.(*HashIndex)
		if !ok {
			return fmt.Errorf("join: snapshot holds a hash index but the predicate builds %T", idx)
		}
		writeBlocks(rec.blocks, &h.own, &h.arena)
		h.bytes = rec.bytes
	case snapIdxScan:
		s, ok := idx.(*ScanIndex)
		if !ok {
			return fmt.Errorf("join: snapshot holds a scan index but the predicate builds %T", idx)
		}
		writeBlocks(rec.blocks, &s.own, &s.arena)
		s.bytes = rec.bytes
	case snapIdxOrdered:
		o, ok := idx.(*OrderedIndex)
		if !ok {
			return fmt.Errorf("join: snapshot holds an ordered index but the predicate builds %T", idx)
		}
		return o.load(rec.tuples)
	default:
		return fmt.Errorf("join: cannot install snapshot record of kind %d", rec.kind)
	}
	return nil
}

// LoadSnapshotChain installs a base-first chain of payloads — one full
// snapshot followed by the delta snapshots committed after it — into
// l, which must be freshly constructed (empty). A full payload later
// in the chain simply supersedes everything before it.
func (l *Local) LoadSnapshotChain(payloads [][]byte) error {
	return l.LoadSharedChain(payloads, nil)
}

// LoadSharedChain is LoadSnapshotChain for payloads of operator
// checkpoints with block tables: tables[i] resolves the references of
// payloads[i] (nil: its checkpoint has none; a nil slice: none has).
// Each view of a table entry's block is restored as a view of the one
// block the entry decodes into, which every Local restored from the
// same tables shares.
func (l *Local) LoadSharedChain(payloads [][]byte, tables []*SharedTable) error {
	if l.r.Len() != 0 || l.s.Len() != 0 {
		return fmt.Errorf("join: LoadSnapshotChain target is not empty")
	}
	rRec, sRec, err := resolveChain(payloads, tables)
	if err != nil {
		return err
	}
	if err := installSide(l.r, rRec); err != nil {
		return err
	}
	return installSide(l.s, sRec)
}

// resolveChain parses a base-first payload chain against its tables and
// splices each side into one resolved record.
func resolveChain(payloads [][]byte, tables []*SharedTable) (r, s sideSnap, err error) {
	if len(payloads) == 0 {
		return r, s, fmt.Errorf("join: empty snapshot chain")
	}
	if tables != nil && len(tables) != len(payloads) {
		return r, s, fmt.Errorf("join: %d block tables for a chain of %d payloads", len(tables), len(payloads))
	}
	rs := make([]sideSnap, len(payloads))
	ss := make([]sideSnap, len(payloads))
	for i, p := range payloads {
		var tab *SharedTable
		if tables != nil {
			tab = tables[i]
		}
		if rs[i], ss[i], err = parseLocalPayload(p, tab); err != nil {
			return r, s, err
		}
	}
	if r, err = spliceChain(rs); err != nil {
		return r, s, err
	}
	s, err = spliceChain(ss)
	return r, s, err
}

// SharedTable is the decode side of one checkpoint's block table
// (BlockTable): its entries, checked and undecoded. An entry decodes on
// the first install that names it, into one block that every later
// install naming it views.
type SharedTable struct {
	entries []*sharedEntry
}

// sharedEntry is one table entry: rows [lo, hi) of a block, as one
// block record.
type sharedEntry struct {
	lo, hi int32
	rec    blockRecord
	// named reports that a payload of the entry's own checkpoint names
	// it (Name); sharers counts the stores that view it once their
	// chains are spliced (CountSharers).
	named   bool
	sharers int32
	once    sync.Once
	c       *colChunk
}

// ReadEntry parses one table entry as AppendEntry wrote it and appends
// it to t.
func (t *SharedTable) ReadEntry(data []byte) error {
	r := &snapReader{data: data}
	lo := r.u32("table entry row")
	rec, fill := readBlock(r)
	if r.err != nil {
		return r.err
	}
	if int64(lo)+int64(fill) > arenaChunk {
		return fmt.Errorf("join: block table entry holds rows [%d, %d) of a %d-row block", lo, int64(lo)+int64(fill), arenaChunk)
	}
	if r.off != len(data) {
		return fmt.Errorf("join: block table entry has %d trailing bytes", len(data)-r.off)
	}
	t.entries = append(t.entries, &sharedEntry{lo: int32(lo), hi: int32(lo) + int32(fill), rec: rec})
	return nil
}

// Name checks every reference of payload, a Local payload of t's own
// checkpoint, against t and marks the entries it names.
func (t *SharedTable) Name(payload []byte) error {
	r, s, err := parseLocalPayload(payload, t)
	if err != nil {
		return err
	}
	for _, side := range [2]sideSnap{r, s} {
		for _, b := range side.blocks {
			if b.shared != nil {
				b.shared.named = true
			}
		}
	}
	return nil
}

// CheckNamed fails when some entry of t is named by no payload Name
// was given: a table entry no joiner of its checkpoint references.
func (t *SharedTable) CheckNamed() error {
	for i, e := range t.entries {
		if !e.named {
			return fmt.Errorf("join: block table entry %d of %d is referenced by no store", i, len(t.entries))
		}
	}
	return nil
}

// CountSharers resolves one store's payload chain against its tables
// (see LoadSharedChain) and adds the store as a sharer of every entry
// a view of its resolved state names — once per side that names it.
// Counting every store of a checkpoint before any is installed gives
// each restored block the fan-out it is shared by.
func CountSharers(payloads [][]byte, tables []*SharedTable) error {
	r, s, err := resolveChain(payloads, tables)
	if err != nil {
		return err
	}
	for _, side := range [2]sideSnap{r, s} {
		seen := map[*sharedEntry]bool{}
		for _, b := range side.blocks {
			if e := b.shared; e != nil && !seen[e] {
				seen[e] = true
				e.sharers++
			}
		}
	}
	return nil
}

// block returns the entry's block, decoding it on the first call: the
// entry's rows at their own row numbers, for max(sharers, 1) stores.
func (e *sharedEntry) block() *colChunk {
	e.once.Do(func() {
		c := newChunk(recordShape(e.rec.cols, e.rec.payloads != nil), max(e.sharers, 1))
		p := e.rec.payloads
		for i := int32(0); i < e.hi-e.lo; i++ {
			p = decodeRow(c, e.lo+i, e.rec.cols[i*tupleBytes:(i+1)*tupleBytes], p)
		}
		e.c = c
	})
	return e.c
}

// SnapshotSeqs appends the sequence number of every stored non-dummy
// tuple on both sides to seqs — the duplicate-filter set a restored
// joiner uses to drop replayed tuples it already holds.
func (l *Local) SnapshotSeqs(seqs []uint64) []uint64 {
	collect := func(idx Index) {
		idx.Scan(func(t Tuple) bool {
			if !t.Dummy && t.Seq != 0 {
				seqs = append(seqs, t.Seq)
			}
			return true
		})
	}
	collect(l.r)
	collect(l.s)
	return seqs
}
