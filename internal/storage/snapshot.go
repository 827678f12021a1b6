package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/join"
	"repro/internal/matrix"
)

// Operator checkpoint blob format. The blob is a sequence of
// length-prefixed, individually-checksummed records:
//
//	┌─────────┬─────────┬────────┬───────────────┐
//	│ u32 len │ u32 crc │ u8 typ │ payload       │   len = 1 + |payload|
//	└─────────┴─────────┴────────┴───────────────┘   crc = CRC32(typ ‖ payload)
//
//	header   magic "SQLCKPT1", format version, checkpoint id
//	meta     epoch, (n,m) grid, cell→joiner table, reshuffler count,
//	         global sequence cursor
//	lanes    source-lane cursors; the operator, which no longer has
//	         source lanes, writes it empty (format unchanged)
//	cuts     per-reshuffler consumed-item counts at the barrier
//	         (the replay-buffer trim cursors)
//	joiner   one per joiner: id, emitted-pair count at the barrier,
//	         store state (arena blocks + spilled records)
//	trailer  total record count
//
// A record that fails its CRC, a missing trailer, or an id that does
// not match the manifest all fail decode with an error wrapping
// ErrCorrupt — a torn or mangled blob can never silently load as a
// shorter-but-valid checkpoint.

const (
	snapMagic = "SQLCKPT1"
	// Version 2 added BaseID to the header (base+delta checkpoint
	// chains) and the kind byte to the per-joiner store payload.
	snapVersion = 2
)

const (
	recHeader  = 1
	recMeta    = 2
	recLanes   = 3
	recCuts    = 4
	recJoiner  = 5
	recTrailer = 6
)

// LaneCursor is one source lane's private sequence-grant window at the
// barrier. The operator no longer has source lanes and writes none; the
// type stays so older blobs decode and the record format is unchanged.
type LaneCursor struct {
	Next uint64 // next sequence number the lane would assign
	End  uint64 // end of the granted window
}

// JoinerSnapshot is one joiner's barrier state.
type JoinerSnapshot struct {
	ID int
	// Emitted counts the pairs the joiner had emitted when it reached
	// the barrier: the cut position in its output stream.
	Emitted int64
	// State is the store snapshot payload committed in this generation
	// (Store.AppendSnapshot or a delta from Store.AppendSnapshotSince).
	// Decode fills it.
	State []byte
	// Capture, when set, is the encode-side form of State: the joiner's
	// barrier capture, which Encode writes straight into the blob in
	// place of State.
	Capture *StoreCapture
	// StateChain is the joiner's payloads across the whole checkpoint
	// chain, base first, ending with State. DecodeOperatorSnapshotChain
	// fills it; a single-generation decode leaves it nil and State is
	// the full story.
	StateChain [][]byte
}

// OperatorSnapshot is a decoded checkpoint: everything needed to
// rebuild the operator at the barrier's consistent cut.
type OperatorSnapshot struct {
	ID uint64
	// BaseID is the generation this snapshot's deltas stack on: the
	// previous link of the checkpoint chain. 0 marks a full snapshot
	// (chain base).
	BaseID  uint64
	Epoch   uint32
	Mapping matrix.Mapping
	Table   []int // cell index → joiner id
	NumRe   int
	Seq     uint64 // global ingest sequence cursor
	// RouteSeed is the operator's routing seed. Restore forces it on the
	// rebuilt operator: replay-duplicate filtering relies on a replayed
	// tuple routing to the joiners that stored its first copy, which only
	// holds under the same deterministic (seed, seq) routing mix.
	RouteSeed int64
	Lanes     []LaneCursor
	Cuts      []int64 // per-reshuffler replay trim cursors
	Joiners   []JoinerSnapshot
}

// recFrame is a record's framing ahead of its payload: u32 len, u32
// crc, u8 type.
const recFrame = 4 + 4 + 1

// joinerHead is a joiner record's payload ahead of the store state:
// u32 id, u64 emitted, u32 state length.
const joinerHead = 4 + 8 + 4

// putRecord frames one record in place. rec is exactly recFrame plus
// the payload's length, and fill appends the payload to the
// zero-length slice of exactly that capacity it is handed, so the
// payload lands in rec itself. The CRC is then taken over the type
// byte and payload where they sit.
func putRecord(rec []byte, typ byte, fill func([]byte) []byte) {
	if p := fill(rec[recFrame:recFrame:len(rec)]); len(p) != len(rec)-recFrame {
		panic(fmt.Sprintf("storage: checkpoint record type %d encoded %d bytes, sized %d", typ, len(p), len(rec)-recFrame))
	}
	binary.LittleEndian.PutUint32(rec, uint32(len(rec)-8))
	rec[8] = typ
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(rec[8:]))
}

// stateSize is the length of the joiner's store payload.
func (j *JoinerSnapshot) stateSize() int {
	if j.Capture != nil {
		return j.Capture.Size()
	}
	return len(j.State)
}

// putRecord writes the joiner's record into rec, sized for it.
func (j *JoinerSnapshot) putRecord(rec []byte) {
	putRecord(rec, recJoiner, func(p []byte) []byte {
		p = binary.LittleEndian.AppendUint32(p, uint32(j.ID))
		p = binary.LittleEndian.AppendUint64(p, uint64(j.Emitted))
		p = binary.LittleEndian.AppendUint32(p, uint32(len(rec)-recFrame-joinerHead))
		if j.Capture != nil {
			return j.Capture.AppendTo(p)
		}
		return append(p, j.State...)
	})
}

// Encode serializes the snapshot into one blob. Every record is sized
// first, so the blob is allocated once at its exact length and each
// record — joiner stores included — is written in place; the joiner
// records occupy disjoint, precomputed regions and are encoded in
// parallel. The returned blob is never reused by the encoder.
func (s *OperatorSnapshot) Encode() []byte {
	fixed := [...]int{
		len(snapMagic) + 4 + 8 + 8,       // header
		4*4 + 8 + 8 + 4 + 4*len(s.Table), // meta
		4 + 16*len(s.Lanes),              // lanes
		4 + 8*len(s.Cuts),                // cuts
	}
	total := recFrame + 4 // trailer
	for _, n := range fixed {
		total += recFrame + n
	}
	joinerLen := make([]int, len(s.Joiners))
	for i := range s.Joiners {
		joinerLen[i] = recFrame + joinerHead + s.Joiners[i].stateSize()
		total += joinerLen[i]
	}
	blob := make([]byte, total)
	off := 0
	next := func(n int) []byte {
		rec := blob[off : off+n]
		off += n
		return rec
	}

	putRecord(next(recFrame+fixed[0]), recHeader, func(p []byte) []byte {
		p = append(p, snapMagic...)
		p = binary.LittleEndian.AppendUint32(p, snapVersion)
		p = binary.LittleEndian.AppendUint64(p, s.ID)
		return binary.LittleEndian.AppendUint64(p, s.BaseID)
	})
	putRecord(next(recFrame+fixed[1]), recMeta, func(p []byte) []byte {
		p = binary.LittleEndian.AppendUint32(p, s.Epoch)
		p = binary.LittleEndian.AppendUint32(p, uint32(s.Mapping.N))
		p = binary.LittleEndian.AppendUint32(p, uint32(s.Mapping.M))
		p = binary.LittleEndian.AppendUint32(p, uint32(s.NumRe))
		p = binary.LittleEndian.AppendUint64(p, s.Seq)
		p = binary.LittleEndian.AppendUint64(p, uint64(s.RouteSeed))
		p = binary.LittleEndian.AppendUint32(p, uint32(len(s.Table)))
		for _, id := range s.Table {
			p = binary.LittleEndian.AppendUint32(p, uint32(id))
		}
		return p
	})
	putRecord(next(recFrame+fixed[2]), recLanes, func(p []byte) []byte {
		p = binary.LittleEndian.AppendUint32(p, uint32(len(s.Lanes)))
		for _, l := range s.Lanes {
			p = binary.LittleEndian.AppendUint64(p, l.Next)
			p = binary.LittleEndian.AppendUint64(p, l.End)
		}
		return p
	})
	putRecord(next(recFrame+fixed[3]), recCuts, func(p []byte) []byte {
		p = binary.LittleEndian.AppendUint32(p, uint32(len(s.Cuts)))
		for _, c := range s.Cuts {
			p = binary.LittleEndian.AppendUint64(p, uint64(c))
		}
		return p
	})
	recs := make([][]byte, len(s.Joiners))
	for i, n := range joinerLen {
		recs[i] = next(n)
	}
	putRecord(next(recFrame+4), recTrailer, func(p []byte) []byte {
		// header + meta + lanes + cuts + joiners + trailer itself
		return binary.LittleEndian.AppendUint32(p, uint32(5+len(s.Joiners)))
	})
	s.putJoiners(recs)
	return blob
}

// putJoiners writes every joiner record into its region of the blob
// over min(J, GOMAXPROCS) goroutines. A panic in one of them (a capture
// whose encoding disagrees with its size) re-raises on the caller.
func (s *OperatorSnapshot) putJoiners(recs [][]byte) {
	var next atomic.Int64
	var failed atomic.Pointer[any]
	var wg sync.WaitGroup
	for w := min(len(recs), runtime.GOMAXPROCS(0)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					failed.CompareAndSwap(nil, &p)
				}
			}()
			for i := int(next.Add(1) - 1); i < len(recs); i = int(next.Add(1) - 1) {
				s.Joiners[i].putRecord(recs[i])
			}
		}()
	}
	wg.Wait()
	if p := failed.Load(); p != nil {
		panic(*p)
	}
}

// corruptf wraps a decode failure with the ErrCorrupt sentinel.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("storage: "+format+": %w", append(args, ErrCorrupt)...)
}

// nextRecord parses and checksum-validates one framed record.
func nextRecord(data []byte, off int) (typ byte, payload []byte, next int, err error) {
	if off+8 > len(data) {
		return 0, nil, 0, corruptf("checkpoint record frame truncated at offset %d", off)
	}
	ln := int(binary.LittleEndian.Uint32(data[off:]))
	sum := binary.LittleEndian.Uint32(data[off+4:])
	body := data[off+8:]
	if ln < 1 || ln > len(body) {
		return 0, nil, 0, corruptf("checkpoint record at offset %d claims %d bytes, %d remain", off, ln, len(body))
	}
	body = body[:ln]
	if crc32.ChecksumIEEE(body) != sum {
		return 0, nil, 0, corruptf("checkpoint record at offset %d fails its CRC", off)
	}
	return body[0], body[1:], off + 8 + ln, nil
}

// fieldReader is a bounds-checked cursor over one record payload.
type fieldReader struct {
	data []byte
	off  int
	bad  bool
}

func (r *fieldReader) u32() uint32 {
	if r.off+4 > len(r.data) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *fieldReader) u64() uint64 {
	if r.off+8 > len(r.data) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

func (r *fieldReader) bytes(n int) []byte {
	if n < 0 || r.off+n > len(r.data) {
		r.bad = true
		return nil
	}
	v := r.data[r.off : r.off+n]
	r.off += n
	return v
}

// DecodeOperatorSnapshot parses and validates a checkpoint blob. The
// id under which the backend committed the blob must match the id
// embedded in the header — a mismatch means a stale or cross-wired
// blob and fails like any other corruption.
func DecodeOperatorSnapshot(id uint64, data []byte) (*OperatorSnapshot, error) {
	s := &OperatorSnapshot{}
	count := 0
	sawHeader, sawMeta, sawTrailer := false, false, false
	off := 0
	for off < len(data) {
		typ, payload, next, err := nextRecord(data, off)
		if err != nil {
			return nil, err
		}
		off = next
		count++
		r := &fieldReader{data: payload}
		switch typ {
		case recHeader:
			magic := r.bytes(len(snapMagic))
			ver := r.u32()
			gotID := r.u64()
			baseID := r.u64()
			if r.bad || string(magic) != snapMagic {
				return nil, corruptf("checkpoint header malformed")
			}
			if ver != snapVersion {
				return nil, fmt.Errorf("storage: unsupported checkpoint version %d", ver)
			}
			if gotID != id {
				return nil, corruptf("checkpoint blob carries id %d, manifest committed id %d (stale blob)", gotID, id)
			}
			s.ID = gotID
			s.BaseID = baseID
			sawHeader = true
		case recMeta:
			s.Epoch = r.u32()
			s.Mapping.N = int(r.u32())
			s.Mapping.M = int(r.u32())
			s.NumRe = int(r.u32())
			s.Seq = r.u64()
			s.RouteSeed = int64(r.u64())
			n := int(r.u32())
			if n < 0 || n > 1<<20 {
				return nil, corruptf("checkpoint table length %d implausible", n)
			}
			s.Table = make([]int, n)
			for i := range s.Table {
				s.Table[i] = int(r.u32())
			}
			sawMeta = true
		case recLanes:
			n := int(r.u32())
			if n < 0 || n > 1<<20 {
				return nil, corruptf("checkpoint lane count %d implausible", n)
			}
			s.Lanes = make([]LaneCursor, n)
			for i := range s.Lanes {
				s.Lanes[i] = LaneCursor{Next: r.u64(), End: r.u64()}
			}
		case recCuts:
			n := int(r.u32())
			if n < 0 || n > 1<<20 {
				return nil, corruptf("checkpoint cut count %d implausible", n)
			}
			s.Cuts = make([]int64, n)
			for i := range s.Cuts {
				s.Cuts[i] = int64(r.u64())
			}
		case recJoiner:
			j := JoinerSnapshot{ID: int(r.u32())}
			j.Emitted = int64(r.u64())
			stateLen := int(r.u32())
			j.State = append([]byte(nil), r.bytes(stateLen)...)
			if r.bad {
				return nil, corruptf("checkpoint joiner record truncated")
			}
			s.Joiners = append(s.Joiners, j)
		case recTrailer:
			want := int(r.u32())
			if r.bad || want != count {
				return nil, corruptf("checkpoint trailer counts %d records, blob has %d", want, count)
			}
			sawTrailer = true
		default:
			return nil, corruptf("checkpoint has unknown record type %d", typ)
		}
		if r.bad {
			return nil, corruptf("checkpoint record type %d truncated", typ)
		}
		if sawTrailer {
			break
		}
	}
	if off != len(data) {
		return nil, corruptf("checkpoint has %d trailing bytes after the trailer", len(data)-off)
	}
	if !sawHeader || !sawMeta || !sawTrailer {
		return nil, corruptf("checkpoint is missing required records (header=%v meta=%v trailer=%v)",
			sawHeader, sawMeta, sawTrailer)
	}
	if !s.Mapping.Valid() || s.Mapping.J() != len(s.Table) {
		return nil, corruptf("checkpoint mapping %v inconsistent with table of %d cells", s.Mapping, len(s.Table))
	}
	if len(s.Joiners) != len(s.Table) {
		return nil, corruptf("checkpoint has %d joiner records for %d cells", len(s.Joiners), len(s.Table))
	}
	return s, nil
}

// DecodeOperatorSnapshotChain decodes a base-first blob chain as
// returned by Backend.Load and resolves it into the newest snapshot,
// with each joiner's StateChain carrying its per-generation store
// payloads base first. The chain links are cross-checked: the base
// must be a full snapshot (BaseID 0) and every later blob must name
// its predecessor, so a backend that assembled the wrong files fails
// decode instead of restoring a frankenstate.
func DecodeOperatorSnapshotChain(blobs []Blob) (*OperatorSnapshot, error) {
	if len(blobs) == 0 {
		return nil, corruptf("empty checkpoint chain")
	}
	snaps := make([]*OperatorSnapshot, len(blobs))
	for i, b := range blobs {
		s, err := DecodeOperatorSnapshot(b.Gen, b.Data)
		if err != nil {
			return nil, err
		}
		snaps[i] = s
	}
	if snaps[0].BaseID != 0 {
		return nil, corruptf("checkpoint chain base %d is a delta on generation %d", snaps[0].ID, snaps[0].BaseID)
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].BaseID != snaps[i-1].ID {
			return nil, corruptf("checkpoint chain link %d stacks on generation %d, not its predecessor %d",
				snaps[i].ID, snaps[i].BaseID, snaps[i-1].ID)
		}
	}
	head := snaps[len(snaps)-1]
	for ji := range head.Joiners {
		j := &head.Joiners[ji]
		var chain [][]byte
		for _, s := range snaps {
			for k := range s.Joiners {
				if s.Joiners[k].ID == j.ID {
					chain = append(chain, s.Joiners[k].State)
					break
				}
			}
		}
		j.StateChain = chain
	}
	return head, nil
}

// Store snapshot payload framing (the bytes inside one JoinerSnapshot
// State):
//
//	u8  kind        0 = full (self-contained), 1 = delta (needs chain)
//	u32 memLen      length of the memory-tier payload
//	    mem         join.Local encoding (full or delta per side)
//	    spill R     full:  u32 count, then count records
//	    spill S     delta: u32 prevCount, u32 newCount, then
//	                newCount-prevCount records appended since the base
const (
	storeSnapFull  = 0
	storeSnapDelta = 1
)

// SpillMark is one spill segment's incremental-checkpoint watermark: a
// (rewrites, record count) pair. Between retain rewrites the segment
// file is append-only, so the first N records are frozen while
// rewrites holds.
type SpillMark struct {
	Rewrites uint64
	N        uint32
}

// StoreWatermark names everything a Store had durably shipped as of
// one committed checkpoint. A later AppendSnapshotSince ships only
// state past it; any rebuild (index retain, spill rewrite) invalidates
// the affected component and degrades it to a full encoding.
type StoreWatermark struct {
	Mem   join.LocalWatermark
	Spill [2]SpillMark
}

func (s *Store) spillMark(side matrix.Side) SpillMark {
	if seg := s.segs[side]; seg != nil {
		return SpillMark{Rewrites: seg.rewrites, N: uint32(seg.len())}
	}
	return SpillMark{}
}

// StoreCapture is a Store's state frozen at a checkpoint barrier by
// Capture: the memory tier as a join.LocalCapture (arena blocks by
// reference plus a copy of each open tail block) and the spilled
// records past the watermark, already encoded — a spill segment is a
// file the owner keeps appending to, so its records cannot be held by
// reference. Size and AppendTo only read the capture, so the encode may
// run on any goroutine while the owner keeps inserting; it must finish
// before the owner next runs Retain (migration), which the operator
// guarantees by starting no migration while a checkpoint is uncommitted.
type StoreCapture struct {
	kind  byte
	mem   join.LocalCapture
	spill [2]spillCapture
}

// spillCapture is one side's spilled-record suffix: records [prev, cur)
// of the segment, encoded (prev is 0 in a full payload).
type spillCapture struct {
	prev, cur uint32
	recs      []byte
}

// Capture freezes the store for a snapshot that ships only state
// stored since wm was taken, when possible. A nil wm, or one
// invalidated by a spill-segment rewrite, captures a full snapshot
// (per-index rebuilds degrade just that index inside the memory
// payload). The returned watermark is valid to delta against only once
// the payload encoded from this capture has durably committed. full
// reports whether the payload is self-contained.
func (s *Store) Capture(wm *StoreWatermark) (c *StoreCapture, next StoreWatermark, full bool) {
	sides := [2]matrix.Side{matrix.SideR, matrix.SideS}
	next.Spill[matrix.SideR] = s.spillMark(matrix.SideR)
	next.Spill[matrix.SideS] = s.spillMark(matrix.SideS)

	full = wm == nil
	for _, side := range sides {
		if full {
			break
		}
		m, cur := wm.Spill[side], next.Spill[side]
		full = m.Rewrites != cur.Rewrites || m.N > cur.N
	}

	c = &StoreCapture{kind: storeSnapDelta}
	if full {
		c.kind = storeSnapFull
		c.mem, next.Mem, _ = s.mem.Capture(nil)
	} else {
		c.mem, next.Mem, _ = s.mem.Capture(&wm.Mem)
	}
	for _, side := range sides {
		sc := &c.spill[side]
		sc.cur = next.Spill[side].N
		if !full {
			sc.prev = wm.Spill[side].N
		}
		seg := s.segs[side]
		if seg == nil || sc.cur == sc.prev {
			continue
		}
		sc.recs = make([]byte, 0, int(sc.cur-sc.prev)*recordHeader)
		var scratch []byte
		i := uint32(0)
		seg.scan(func(t join.Tuple) bool {
			if i >= sc.prev {
				scratch = encodeRecordInto(scratch, t)
				sc.recs = append(sc.recs, scratch...)
			}
			i++
			return true
		}, &s.Metrics)
	}
	return c, next, full
}

// Size is the exact length AppendTo writes.
func (c *StoreCapture) Size() int {
	n := 1 + 4 + c.mem.Size()
	for _, sc := range c.spill {
		n += 4 + len(sc.recs)
		if c.kind == storeSnapDelta {
			n += 4
		}
	}
	return n
}

// AppendTo encodes the captured payload onto buf, in the store payload
// framing above, and returns the extended slice.
func (c *StoreCapture) AppendTo(buf []byte) []byte {
	buf = append(buf, c.kind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.mem.Size()))
	buf = c.mem.AppendTo(buf)
	for _, sc := range c.spill {
		if c.kind == storeSnapDelta {
			buf = binary.LittleEndian.AppendUint32(buf, sc.prev)
		}
		buf = binary.LittleEndian.AppendUint32(buf, sc.cur)
		buf = append(buf, sc.recs...)
	}
	return buf
}

// AppendSnapshot appends the store's full serialized state to buf: the
// memory tier as whole arena blocks (join.Local.AppendSnapshot), then
// each side's spilled records in append order, re-using the spill
// segment's record encoding.
func (s *Store) AppendSnapshot(buf []byte) []byte {
	out, _, _ := s.AppendSnapshotSince(buf, nil)
	return out
}

// AppendSnapshotSince is Capture followed by AppendTo on the calling
// goroutine: the payload a checkpoint of this store would commit.
func (s *Store) AppendSnapshotSince(buf []byte, wm *StoreWatermark) (out []byte, next StoreWatermark, full bool) {
	c, next, full := s.Capture(wm)
	return c.AppendTo(slices.Grow(buf, c.Size())), next, full
}

// storeSnap is one parsed store payload, held decoded so a chain can
// be resolved before installation.
type storeSnap struct {
	kind byte
	mem  []byte
	// spill[side]: for a full payload prev is 0 and recs is the whole
	// record list; for a delta prev is the base's record count and recs
	// the appended suffix.
	prev [2]int
	recs [2][]join.Tuple
}

func parseStoreSnapshot(data []byte) (storeSnap, error) {
	var ss storeSnap
	if len(data) < 5 {
		return ss, corruptf("store snapshot truncated (%d bytes)", len(data))
	}
	ss.kind = data[0]
	if ss.kind != storeSnapFull && ss.kind != storeSnapDelta {
		return ss, corruptf("store snapshot has unknown kind %d", ss.kind)
	}
	memLen := int(binary.LittleEndian.Uint32(data[1:]))
	off := 5
	if memLen < 0 || off+memLen > len(data) {
		return ss, corruptf("store snapshot memory tier claims %d bytes, %d remain", memLen, len(data)-off)
	}
	ss.mem = data[off : off+memLen]
	off += memLen
	for _, side := range [2]matrix.Side{matrix.SideR, matrix.SideS} {
		var cnt int
		if ss.kind == storeSnapDelta {
			if off+8 > len(data) {
				return ss, corruptf("store snapshot truncated before side %d spill cursors", side)
			}
			prev := int(binary.LittleEndian.Uint32(data[off:]))
			cur := int(binary.LittleEndian.Uint32(data[off+4:]))
			off += 8
			if cur < prev {
				return ss, corruptf("store snapshot side %d spill shrank %d -> %d without a rewrite", side, prev, cur)
			}
			ss.prev[side] = prev
			cnt = cur - prev
		} else {
			if off+4 > len(data) {
				return ss, corruptf("store snapshot truncated before side %d spill count", side)
			}
			cnt = int(binary.LittleEndian.Uint32(data[off:]))
			off += 4
		}
		for i := 0; i < cnt; i++ {
			if off+recordHeader > len(data) {
				return ss, corruptf("store snapshot spill record %d/%d truncated", i, cnt)
			}
			plen := int(binary.LittleEndian.Uint32(data[off+38:]))
			if plen < 0 || off+recordHeader+plen > len(data) {
				return ss, corruptf("store snapshot spill record %d/%d payload truncated", i, cnt)
			}
			t, consumed := decodeRecord(data[off:])
			off += consumed
			ss.recs[side] = append(ss.recs[side], t)
		}
	}
	if off != len(data) {
		return ss, corruptf("store snapshot has %d trailing bytes", len(data)-off)
	}
	return ss, nil
}

// RestoreSnapshot installs a single self-contained snapshot. See
// RestoreSnapshotChain.
func (s *Store) RestoreSnapshot(data []byte) error {
	return s.RestoreSnapshotChain([][]byte{data})
}

// RestoreSnapshotChain installs a base-first chain of payloads — one
// full snapshot and the deltas committed after it — into a freshly
// constructed store. The memory tier is rebuilt by splicing each
// delta's blocks onto its base and adopting the result wholesale;
// spilled records re-enter through Insert, so the memory budget
// re-applies and overflow spills again. The restored memory tier may
// exceed CapBytes when the snapshot was taken unbudgeted — the budget
// gates inserts, not installs.
func (s *Store) RestoreSnapshotChain(payloads [][]byte) error {
	if len(payloads) == 0 {
		return corruptf("empty store snapshot chain")
	}
	parsed := make([]storeSnap, len(payloads))
	for i, p := range payloads {
		var err error
		if parsed[i], err = parseStoreSnapshot(p); err != nil {
			return err
		}
	}
	mems := make([][]byte, len(parsed))
	for i := range parsed {
		mems[i] = parsed[i].mem
	}
	if err := s.mem.LoadSnapshotChain(mems); err != nil {
		// Join-level chain decode failures (bad splice prefix, mixed
		// record kinds, no full base) are corruption the CRCs cannot see:
		// classify them so Restore falls back to an older generation
		// instead of aborting.
		return fmt.Errorf("storage: restore memory tier: %w: %w", err, ErrCorrupt)
	}
	for _, side := range [2]matrix.Side{matrix.SideR, matrix.SideS} {
		var logical []join.Tuple
		for i, ss := range parsed {
			if ss.kind == storeSnapFull {
				logical = append(logical[:0], ss.recs[side]...)
				continue
			}
			if ss.prev[side] != len(logical) {
				return corruptf("store snapshot chain link %d expects %d side-%d spill records, base resolves to %d",
					i, ss.prev[side], side, len(logical))
			}
			logical = append(logical, ss.recs[side]...)
		}
		for _, t := range logical {
			s.Insert(t)
		}
	}
	return nil
}

// SnapshotSeqs appends the sequence numbers of every stored non-dummy
// tuple, both tiers, to seqs: the restored joiner's duplicate-filter
// set.
func (s *Store) SnapshotSeqs(seqs []uint64) []uint64 {
	seqs = s.mem.SnapshotSeqs(seqs)
	for _, side := range [2]matrix.Side{matrix.SideR, matrix.SideS} {
		if seg := s.segs[side]; seg != nil {
			seg.scan(func(t join.Tuple) bool {
				if !t.Dummy && t.Seq != 0 {
					seqs = append(seqs, t.Seq)
				}
				return true
			}, &s.Metrics)
		}
	}
	return seqs
}
