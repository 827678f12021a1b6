package join

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Checkpoint capture and serialization of the in-memory join state.
// The columnar arena is the unit of transfer: a colChunk is five
// parallel columns of machine words plus an optional out-of-line
// payload column, so a block serializes as a near-memcpy column dump
// and deserializes into a block that can be adopted wholesale.
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
// checkpoint blob. Each view is written as one block record, so a
// shared block is written once per joiner that stores it.
//
// Restore writes the decoded rows through the restored index's own
// writer, which packs a store's short windows into dense blocks, and
// rebuilds the directory and the chain columns from their key columns
// as migration finalization does: derived state is never shipped — the
// snapshot carries tuple data only, so a format change in the derived
// state (slot layout, growth state, chains) can never invalidate a
// checkpoint; testdata/parent_* holds the proof for the last such
// change.
//
// Framing, CRCs, and manifest-level atomicity live one layer up in
// internal/storage; this file defines only the raw encoding of one
// Local's two indexes.

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

// blockSize is the exact length appendBlock writes for v.
func blockSize(v view) int {
	fill := int(v.hi - v.lo)
	n := 4 + 1 + tupleBytes*fill
	if v.c.payload != nil {
		n += 4 * fill
		for _, p := range v.c.payload[v.lo:v.hi] {
			n += len(p)
		}
	}
	return n
}

// appendBlock encodes one non-empty view as a block: the fill level, a
// payload-presence flag, the five columns of each tuple as
// little-endian words, and the payload bytes when present.
func appendBlock(buf []byte, v view) []byte {
	c, fill := v.c, int(v.hi-v.lo)
	buf = appendU32(buf, uint32(fill))
	hasPayload := uint8(0)
	if c.payload != nil {
		hasPayload = 1
	}
	buf = appendU8(buf, hasPayload)
	off := len(buf)
	buf = slices.Grow(buf, tupleBytes*fill)[:off+tupleBytes*fill]
	w := buf[off:]
	for i, pos := 0, v.lo; pos < v.hi; i, pos = i+1, pos+1 {
		t := w[i*tupleBytes : i*tupleBytes+tupleBytes]
		binary.LittleEndian.PutUint64(t[0:], uint64(c.key[pos]))
		binary.LittleEndian.PutUint64(t[8:], uint64(c.aux[pos]))
		binary.LittleEndian.PutUint64(t[16:], c.u[pos])
		binary.LittleEndian.PutUint64(t[24:], c.seq[pos])
		binary.LittleEndian.PutUint64(t[32:], c.meta[pos])
	}
	if hasPayload == 1 {
		for _, p := range c.payload[v.lo:v.hi] {
			buf = appendU32(buf, uint32(len(p)))
			buf = append(buf, p...)
		}
	}
	return buf
}

// blockRecord is one block record appendArena wrote, checked against
// the input and not yet decoded: its rows' five little-endian columns
// and, when the block had a payload column (payloads is non-nil), each
// row's payload as a u32 length and its bytes.
type blockRecord struct{ cols, payloads []byte }

// readBlocks reads the block records appendArena wrote, checking each
// against the input, and returns them undecoded with their row count:
// a restore splices the records of a delta chain before it decodes the
// ones that survive (spliceChain, writeBlocks).
func readBlocks(r *snapReader) (recs []blockRecord, n int) {
	nChunks := int(r.u32("chunk count"))
	for ci := 0; ci < nChunks && r.err == nil; ci++ {
		fill := int(r.u32("chunk fill"))
		hasPayload := r.u8("payload flag") == 1
		if r.err != nil {
			break
		}
		if fill <= 0 || fill > arenaChunk {
			r.err = fmt.Errorf("join: snapshot chunk %d has invalid fill %d", ci, fill)
			break
		}
		rec := blockRecord{cols: r.bytes(fill*tupleBytes, "block columns")}
		if hasPayload {
			start := r.off
			for pos := 0; pos < fill; pos++ {
				r.bytes(int(r.u32("payload length")), "payload bytes")
			}
			rec.payloads = r.data[start:r.off]
		}
		recs = append(recs, rec)
		n += fill
	}
	return recs, n
}

// writeBlocks decodes the rows of recs through w into a, in order: a
// record of a block with a payload column asks for one (BlockWriter.next).
func writeBlocks(recs []blockRecord, w *BlockWriter, a *tupleArena) {
	for _, rec := range recs {
		p := rec.payloads
		for i := 0; i < len(rec.cols)/tupleBytes; i++ {
			c, pos := w.next(a, rec.payloads != nil)
			t := rec.cols[i*tupleBytes : (i+1)*tupleBytes]
			c.key[pos] = int64(binary.LittleEndian.Uint64(t[0:]))
			c.aux[pos] = int64(binary.LittleEndian.Uint64(t[8:]))
			c.u[pos] = binary.LittleEndian.Uint64(t[16:])
			c.seq[pos] = binary.LittleEndian.Uint64(t[24:])
			c.meta[pos] = binary.LittleEndian.Uint64(t[32:])
			if rec.payloads != nil {
				ln := int(binary.LittleEndian.Uint32(p))
				if ln > 0 {
					c.payload[pos] = append([]byte(nil), p[4:4+ln]...)
				}
				p = p[4+ln:]
			}
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
// still match (a Retain rebuild relocates tuples and bumps
// MutGen, invalidating the watermark).
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
// blocks: O(blocks), plus a length read per payload in blocks that
// carry payloads.
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
func (c *sideCapture) size() int {
	if c.kind == snapIdxOrdered {
		return len(c.enc)
	}
	n := 1 + 8 + 4 // kind, byte volume, block count
	if c.kind >= snapIdxHashDelta {
		n += 4 // prefix
	}
	for _, ch := range c.chunks {
		n += blockSize(ch)
	}
	return n
}

// appendTo encodes the side record.
func (c *sideCapture) appendTo(buf []byte) []byte {
	if c.kind == snapIdxOrdered {
		return append(buf, c.enc...)
	}
	buf = appendU8(buf, c.kind)
	buf = appendU64(buf, uint64(c.bytes))
	if c.kind >= snapIdxHashDelta {
		buf = appendU32(buf, c.prefix)
	}
	buf = appendU32(buf, uint32(len(c.chunks)))
	for _, ch := range c.chunks {
		buf = appendBlock(buf, ch)
	}
	return buf
}

// Size is the exact length AppendTo writes: callers encoding into a
// preallocated buffer size it once, up front.
func (c *LocalCapture) Size() int { return 1 + c.r.size() + c.s.size() }

// FullSize is the exact length AppendTo would write had the capture
// been full (Capture(nil) at the same barrier): the live bytes a delta
// chain ending in this capture has to carry at the least. It encodes
// nothing.
func (c *LocalCapture) FullSize() int { return 1 + c.r.full + c.s.full }

// AppendTo encodes the captured state onto buf — the snapshot payload
// of the Local as it stood at capture time — and returns the extended
// slice. It only reads the capture, so it may run on any goroutine
// while the captured Local keeps taking appends.
func (c *LocalCapture) AppendTo(buf []byte) []byte {
	buf = appendU8(buf, c.version)
	buf = c.r.appendTo(buf)
	return c.s.appendTo(buf)
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
// into its two side records. The payload is self-delimiting, so bytes
// past its end mean the framing around it is wrong.
func parseLocalPayload(data []byte) (r, s sideSnap, err error) {
	rd := &snapReader{data: data}
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
// (writeBlocks), and a hash index then builds its directory from the
// key columns, exactly like a migration-finalization merge; an ordered
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
		h.indexFrom(0)
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
	if l.r.Len() != 0 || l.s.Len() != 0 {
		return fmt.Errorf("join: LoadSnapshotChain target is not empty")
	}
	if len(payloads) == 0 {
		return fmt.Errorf("join: empty snapshot chain")
	}
	rs := make([]sideSnap, len(payloads))
	ss := make([]sideSnap, len(payloads))
	for i, p := range payloads {
		var err error
		if rs[i], ss[i], err = parseLocalPayload(p); err != nil {
			return err
		}
	}
	rRec, err := spliceChain(rs)
	if err != nil {
		return err
	}
	sRec, err := spliceChain(ss)
	if err != nil {
		return err
	}
	if err := installSide(l.r, rRec); err != nil {
		return err
	}
	return installSide(l.s, sRec)
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
