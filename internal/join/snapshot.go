package join

import (
	"encoding/binary"
	"fmt"

	"repro/internal/matrix"
)

// Checkpoint serialization of the in-memory join state. The columnar
// arena is the unit of transfer: a colChunk is five parallel columns
// of machine words plus an optional out-of-line payload column, so a
// block serializes as a near-memcpy column dump and deserializes into
// a block that can be adopted wholesale. Restore goes through the same
// MergeFrom/adopt() path migration finalization uses: the directory
// and the blocks' chain columns are rebuilt from the adopted blocks'
// key columns, never shipped — the snapshot carries tuple data only,
// so a format change in the derived state (slot layout, growth state,
// chains) can never invalidate a checkpoint; testdata/parent_* holds
// the proof for the last such change.
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
	snapIdxOrdered = 2 // OrderedIndex: per-tuple fallback, tree rebuilt on load
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

// appendArena encodes every filled block of a: per block the fill
// level, a payload-presence flag, the five columns as little-endian
// words, and the payload bytes when present.
func appendArena(buf []byte, a *tupleArena) []byte {
	return appendArenaFrom(buf, a, 0)
}

// appendArenaFrom encodes the filled blocks of a starting at chunk
// index from, in the same framing appendArena uses — a delta snapshot
// is just a full dump with the frozen prefix skipped. Chunks below
// from are never empty (empty blocks only exist at or past the append
// cursor), so a chunk index below the immutable prefix means the same
// thing in the live list and the serialized one.
func appendArenaFrom(buf []byte, a *tupleArena, from int) []byte {
	if from > len(a.chunks) {
		from = len(a.chunks)
	}
	nChunks := 0
	for _, c := range a.chunks[from:] {
		if c.n > 0 {
			nChunks++
		}
	}
	buf = appendU32(buf, uint32(nChunks))
	for _, c := range a.chunks[from:] {
		if c.n == 0 {
			continue
		}
		buf = appendU32(buf, uint32(c.n))
		hasPayload := uint8(0)
		if c.payload != nil {
			hasPayload = 1
		}
		buf = appendU8(buf, hasPayload)
		for pos := 0; pos < c.n; pos++ {
			buf = appendU64(buf, uint64(c.key[pos]))
			buf = appendU64(buf, uint64(c.aux[pos]))
			buf = appendU64(buf, c.u[pos])
			buf = appendU64(buf, c.seq[pos])
			buf = appendU64(buf, c.meta[pos])
		}
		if hasPayload == 1 {
			for pos := 0; pos < c.n; pos++ {
				buf = appendU32(buf, uint32(len(c.payload[pos])))
				buf = append(buf, c.payload[pos]...)
			}
		}
	}
	return buf
}

// readArena decodes blocks written by appendArena into a fresh arena.
func readArena(r *snapReader) tupleArena {
	var a tupleArena
	nChunks := int(r.u32("chunk count"))
	if r.err != nil || nChunks < 0 {
		return a
	}
	for ci := 0; ci < nChunks; ci++ {
		n := int(r.u32("chunk fill"))
		hasPayload := r.u8("payload flag")
		if r.err != nil {
			return a
		}
		if n <= 0 || n > arenaChunk {
			r.err = fmt.Errorf("join: snapshot chunk %d has invalid fill %d", ci, n)
			return a
		}
		c := &colChunk{n: n}
		for pos := 0; pos < n; pos++ {
			c.key[pos] = int64(r.u64("key column"))
			c.aux[pos] = int64(r.u64("aux column"))
			c.u[pos] = r.u64("u column")
			c.seq[pos] = r.u64("seq column")
			c.meta[pos] = r.u64("meta column")
		}
		if hasPayload == 1 {
			c.payload = make([][]byte, arenaChunk)
			for pos := 0; pos < n; pos++ {
				ln := int(r.u32("payload length"))
				p := r.bytes(ln, "payload bytes")
				if r.err != nil {
					return a
				}
				if ln > 0 {
					c.payload[pos] = append([]byte(nil), p...)
				}
			}
		}
		a.chunks = append(a.chunks, c)
		a.n += n
	}
	if len(a.chunks) > 0 {
		a.tail = len(a.chunks) - 1
	}
	return a
}

// appendIndex encodes one side's index.
func appendIndex(buf []byte, idx Index) []byte {
	switch v := idx.(type) {
	case *HashIndex:
		buf = appendU8(buf, snapIdxHash)
		buf = appendU64(buf, uint64(v.bytes))
		buf = appendArena(buf, &v.arena)
	case *ScanIndex:
		buf = appendU8(buf, snapIdxScan)
		buf = appendU64(buf, uint64(v.bytes))
		buf = appendArena(buf, &v.arena)
	default:
		// Ordered (band) indexes interleave tree rebuild with tuple
		// re-insertion, so they ship as a plain tuple sequence.
		buf = appendU8(buf, snapIdxOrdered)
		buf = appendU32(buf, uint32(idx.Len()))
		idx.Scan(func(t Tuple) bool {
			buf = appendTuple(buf, t)
			return true
		})
	}
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
	t.Rel = matrix.Side(m >> 32 & 1)
	t.Size = int32(uint32(m))
	t.Dummy = metaDummy(m)
	if ln > 0 {
		t.Payload = append([]byte(nil), p...)
	}
	return t
}

// loadIndex installs one side's snapshot into idx, which must be
// empty. Arena-backed kinds go through MergeFrom: the decoded blocks
// are adopted wholesale and the directory is rebuilt from their key
// columns, exactly like a migration-finalization merge.
func loadIndex(r *snapReader, idx Index) error {
	kind := r.u8("index kind")
	if r.err != nil {
		return r.err
	}
	switch kind {
	case snapIdxHash:
		h, ok := idx.(*HashIndex)
		if !ok {
			return fmt.Errorf("join: snapshot holds a hash index but the predicate builds %T", idx)
		}
		bytes := int64(r.u64("index bytes"))
		donor := &HashIndex{arena: readArena(r), bytes: bytes}
		if r.err != nil {
			return r.err
		}
		h.MergeFrom(donor)
	case snapIdxScan:
		s, ok := idx.(*ScanIndex)
		if !ok {
			return fmt.Errorf("join: snapshot holds a scan index but the predicate builds %T", idx)
		}
		bytes := int64(r.u64("index bytes"))
		donor := &ScanIndex{arena: readArena(r), bytes: bytes}
		if r.err != nil {
			return r.err
		}
		s.MergeFrom(donor)
	case snapIdxOrdered:
		n := int(r.u32("tuple count"))
		for i := 0; i < n; i++ {
			t := readTuple(r)
			if r.err != nil {
				return r.err
			}
			idx.Insert(t)
		}
	default:
		return fmt.Errorf("join: snapshot has unknown index kind %d", kind)
	}
	return r.err
}

// AppendSnapshot appends the serialized state of both sides to buf and
// returns the extended slice. The encoding is deterministic for a
// given store state and self-delimiting; it carries no CRC or length
// prefix of its own (the storage layer frames it).
func (l *Local) AppendSnapshot(buf []byte) []byte {
	buf = appendU8(buf, localSnapVersion)
	buf = appendIndex(buf, l.r)
	buf = appendIndex(buf, l.s)
	return buf
}

// LoadSnapshot installs a snapshot produced by AppendSnapshot into l,
// which must be freshly constructed (empty). Returns the number of
// bytes consumed, so callers embedding the snapshot in a larger record
// can continue past it.
func (l *Local) LoadSnapshot(data []byte) (int, error) {
	if l.r.Len() != 0 || l.s.Len() != 0 {
		return 0, fmt.Errorf("join: LoadSnapshot target is not empty")
	}
	r := &snapReader{data: data}
	if v := r.u8("snapshot version"); r.err == nil && v != localSnapVersion {
		return 0, fmt.Errorf("join: unsupported local snapshot version %d", v)
	}
	if err := loadIndex(r, l.r); err != nil {
		return 0, err
	}
	if err := loadIndex(r, l.s); err != nil {
		return 0, err
	}
	return r.off, r.err
}

// IndexWatermark names the frozen block prefix of one index at
// snapshot time: a later delta snapshot ships only chunks at indexes
// >= Chunks, provided the index kind and arena mutation generation
// still match (a Retain/Drain rebuild relocates tuples and bumps
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

// Watermark captures both sides' current watermarks.
func (l *Local) Watermark() LocalWatermark {
	return LocalWatermark{R: indexWatermark(l.r), S: indexWatermark(l.s)}
}

// appendIndexSince encodes idx as a delta against wm when possible,
// falling back to the full encoding when the watermark no longer
// names this arena's frozen prefix. It returns the watermark to record
// for the next delta and whether a delta was emitted.
func appendIndexSince(buf []byte, idx Index, wm IndexWatermark) ([]byte, IndexWatermark, bool) {
	cur := indexWatermark(idx)
	ok := wm.Kind == cur.Kind && wm.MutGen == cur.MutGen && wm.Chunks <= cur.Chunks
	switch v := idx.(type) {
	case *HashIndex:
		if ok {
			buf = appendU8(buf, snapIdxHashDelta)
			buf = appendU64(buf, uint64(v.bytes))
			buf = appendU32(buf, wm.Chunks)
			buf = appendArenaFrom(buf, &v.arena, int(wm.Chunks))
			return buf, cur, true
		}
	case *ScanIndex:
		if ok {
			buf = appendU8(buf, snapIdxScanDelta)
			buf = appendU64(buf, uint64(v.bytes))
			buf = appendU32(buf, wm.Chunks)
			buf = appendArenaFrom(buf, &v.arena, int(wm.Chunks))
			return buf, cur, true
		}
	}
	return appendIndex(buf, idx), cur, false
}

// AppendSnapshotSince appends a snapshot of both sides that ships only
// blocks appended since wm was captured, where possible. A nil wm (or
// one invalidated by a rebuild) degrades that side to the full
// encoding. The returned watermark is what the next delta should be
// taken against — but only once the snapshot it was captured with has
// durably committed, or the chain on disk would have a hole. delta
// reports whether any side actually shipped a delta; when false the
// payload is self-contained.
func (l *Local) AppendSnapshotSince(buf []byte, wm *LocalWatermark) (out []byte, next LocalWatermark, delta bool) {
	if wm == nil {
		next = l.Watermark()
		return l.AppendSnapshot(buf), next, false
	}
	buf = appendU8(buf, localSnapVersionDelta)
	var dr, ds bool
	buf, next.R, dr = appendIndexSince(buf, l.r, wm.R)
	buf, next.S, ds = appendIndexSince(buf, l.s, wm.S)
	return buf, next, dr || ds
}

// sideSnap is one parsed index record of a snapshot payload, full or
// delta, held decoded so a chain of payloads can be spliced before any
// index is built.
type sideSnap struct {
	kind   uint8
	bytes  int64
	prefix int
	arena  tupleArena
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
		s.arena = readArena(r)
	case snapIdxHashDelta, snapIdxScanDelta:
		s.bytes = int64(r.u64("index bytes"))
		s.prefix = int(r.u32("delta prefix"))
		s.arena = readArena(r)
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

// parseLocalPayload decodes one payload produced by AppendSnapshot or
// AppendSnapshotSince into its two side records, returning the bytes
// consumed.
func parseLocalPayload(data []byte) (r, s sideSnap, consumed int, err error) {
	rd := &snapReader{data: data}
	v := rd.u8("snapshot version")
	if rd.err == nil && v != localSnapVersion && v != localSnapVersionDelta {
		return r, s, 0, fmt.Errorf("join: unsupported local snapshot version %d", v)
	}
	if r, err = parseSide(rd); err != nil {
		return r, s, 0, err
	}
	if s, err = parseSide(rd); err != nil {
		return r, s, 0, err
	}
	if v == localSnapVersion && (r.kind >= snapIdxHashDelta || s.kind >= snapIdxHashDelta) {
		return r, s, 0, fmt.Errorf("join: version-1 snapshot contains delta records")
	}
	return r, s, rd.off, rd.err
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
		if d.prefix < 0 || d.prefix > len(cur.arena.chunks) {
			return sideSnap{}, fmt.Errorf("join: chain record %d splices at chunk %d of %d", i, d.prefix, len(cur.arena.chunks))
		}
		chunks := append(append([]*colChunk(nil), cur.arena.chunks[:d.prefix]...), d.arena.chunks...)
		n := 0
		for _, c := range chunks {
			n += c.n
		}
		var a tupleArena
		a.chunks = chunks
		a.n = n
		if len(chunks) > 0 {
			a.tail = len(chunks) - 1
		}
		cur.arena = a
		cur.bytes = d.bytes
	}
	return cur, nil
}

// installSide installs a resolved side record into idx, which must be
// empty, through the same MergeFrom/adopt path loadIndex uses.
func installSide(idx Index, rec sideSnap) error {
	switch rec.kind {
	case snapIdxHash:
		h, ok := idx.(*HashIndex)
		if !ok {
			return fmt.Errorf("join: snapshot holds a hash index but the predicate builds %T", idx)
		}
		donor := &HashIndex{arena: rec.arena, bytes: rec.bytes}
		h.MergeFrom(donor)
	case snapIdxScan:
		s, ok := idx.(*ScanIndex)
		if !ok {
			return fmt.Errorf("join: snapshot holds a scan index but the predicate builds %T", idx)
		}
		donor := &ScanIndex{arena: rec.arena, bytes: rec.bytes}
		s.MergeFrom(donor)
	case snapIdxOrdered:
		for _, t := range rec.tuples {
			idx.Insert(t)
		}
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
		if rs[i], ss[i], _, err = parseLocalPayload(p); err != nil {
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
