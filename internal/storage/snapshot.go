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
//	blocks   one per entry of the block table, which holds every block
//	         two or more joiners name, once: the entry's first row and
//	         its rows as one block record
//	joiner   one per joiner: id, emitted-pair count at the barrier,
//	         store state (arena blocks + spilled records); a view of a
//	         tabled block is a reference (table entry, first row, row
//	         count), not its column bytes
//	trailer  total record count
//
// A checkpoint without a shared block has no blocks record, and its
// joiner records are exactly the payloads Store.AppendSnapshotSince
// writes. Every reference must name rows of an entry of its own
// blob's table, and every entry must be referenced, or the blob fails
// decode like a torn one.
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
	recBlocks  = 7
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
	// (a full or delta Store.Capture, encoded by StoreCapture.AppendTo).
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
	// tables are the block tables that resolve the references of
	// StateChain's payloads, one per payload (nil where its checkpoint
	// has none), or of State alone after a single-generation decode.
	tables []*join.SharedTable
}

// Restore installs the joiner's decoded state — StateChain, or State
// after a single-generation decode — into s, which must be freshly
// constructed. A block its checkpoint chain tabled is restored as one
// block shared by every joiner of the snapshot that views it.
func (j *JoinerSnapshot) Restore(s *Store) error {
	if j.StateChain == nil {
		return s.restoreChain([][]byte{j.State}, j.tables)
	}
	return s.restoreChain(j.StateChain, j.tables)
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
	// blocks is a decoded blob's block table, nil when it has none.
	blocks *join.SharedTable
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

// stateSize is the length of the joiner's store payload in a checkpoint
// with block table t.
func (j *JoinerSnapshot) stateSize(t *join.BlockTable) int {
	if j.Capture != nil {
		return j.Capture.Size(t)
	}
	return len(j.State)
}

// putRecord writes the joiner's record into rec, sized for it.
func (j *JoinerSnapshot) putRecord(rec []byte, t *join.BlockTable) {
	putRecord(rec, recJoiner, func(p []byte) []byte {
		p = binary.LittleEndian.AppendUint32(p, uint32(j.ID))
		p = binary.LittleEndian.AppendUint64(p, uint64(j.Emitted))
		p = binary.LittleEndian.AppendUint32(p, uint32(len(rec)-recFrame-joinerHead))
		if j.Capture != nil {
			return j.Capture.AppendTo(p, t)
		}
		return append(p, j.State...)
	})
}

// blockTable tables the blocks two or more of the joiners' captures
// name (join.NewBlockTable): in the records the captures write, or in
// a full record of their state when full.
func (s *OperatorSnapshot) blockTable(full bool) *join.BlockTable {
	caps := make([]*join.LocalCapture, 0, len(s.Joiners))
	for i := range s.Joiners {
		if c := s.Joiners[i].Capture; c != nil {
			caps = append(caps, &c.mem)
		}
	}
	return join.NewBlockTable(caps, full)
}

// Encode serializes the snapshot into one blob. The joiners' views are
// collected into a block table first, so a block several joiners share
// is written once. Every record is sized next, so the blob is allocated
// once at its exact length and each record — table and joiner stores
// included — is written in place; the table and joiner records occupy
// disjoint, precomputed regions and are encoded in parallel. The
// returned blob is never reused by the encoder.
func (s *OperatorSnapshot) Encode() []byte {
	tab := s.blockTable(false)
	entries := tab.Len()
	fixed := s.fixedLens()
	total := s.frameSize()
	regionLen := make([]int, 0, entries+len(s.Joiners))
	for i := range entries {
		regionLen = append(regionLen, recFrame+tab.EntrySize(i))
		total += recFrame + tab.EntrySize(i)
	}
	for i := range s.Joiners {
		n := s.Joiners[i].stateSize(tab)
		regionLen = append(regionLen, recFrame+joinerHead+n)
		total += n
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
	recs := make([][]byte, len(regionLen))
	for i, n := range regionLen {
		recs[i] = next(n)
	}
	putRecord(next(recFrame+4), recTrailer, func(p []byte) []byte {
		// header + meta + lanes + cuts + blocks + joiners + trailer itself
		return binary.LittleEndian.AppendUint32(p, uint32(5+len(recs)))
	})
	putRegions(len(recs), func(i int) {
		if i < entries {
			putRecord(recs[i], recBlocks, func(p []byte) []byte { return tab.AppendEntry(p, i) })
		} else {
			s.Joiners[i-entries].putRecord(recs[i], tab)
		}
	})
	return blob
}

// fixedLens are the payload lengths of the header, meta, lanes and cuts
// records.
func (s *OperatorSnapshot) fixedLens() [4]int {
	return [...]int{
		len(snapMagic) + 4 + 8 + 8,       // header
		4*4 + 8 + 8 + 4 + 4*len(s.Table), // meta
		4 + 16*len(s.Lanes),              // lanes
		4 + 8*len(s.Cuts),                // cuts
	}
}

// frameSize is the blob's length outside the block table and the
// joiners' store payloads: every fixed record, each joiner record's
// frame and head, the trailer.
func (s *OperatorSnapshot) frameSize() int {
	total := recFrame + 4 // trailer
	for _, n := range s.fixedLens() {
		total += recFrame + n
	}
	return total + len(s.Joiners)*(recFrame+joinerHead)
}

// FullSize is the exact length Encode would return had every joiner
// captured its store in full at this barrier — the live bytes of the
// checkpointed state, each block its joiners share counted once. It
// encodes nothing: a capture knows its full size in O(blocks). A joiner
// record without a capture counts its State.
func (s *OperatorSnapshot) FullSize() int {
	tab := s.blockTable(true)
	total := s.frameSize()
	for i := range tab.Len() {
		total += recFrame + tab.EntrySize(i)
	}
	for i := range s.Joiners {
		if c := s.Joiners[i].Capture; c != nil {
			total += c.FullSize(tab)
		} else {
			total += len(s.Joiners[i].State)
		}
	}
	return total
}

// putRegions runs put(i) for every i < n over min(n, GOMAXPROCS)
// goroutines: each writes one record into its region of the blob. A
// panic in one of them (a capture whose encoding disagrees with its
// size) re-raises on the caller.
func putRegions(n int, put func(i int)) {
	var next atomic.Int64
	var failed atomic.Pointer[any]
	var wg sync.WaitGroup
	for w := min(n, runtime.GOMAXPROCS(0)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					failed.CompareAndSwap(nil, &p)
				}
			}()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				put(i)
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
		case recBlocks:
			if s.blocks == nil {
				s.blocks = &join.SharedTable{}
			}
			// Held past decode, like a joiner's State: a copy.
			if err := s.blocks.ReadEntry(append([]byte(nil), payload...)); err != nil {
				return nil, fmt.Errorf("storage: checkpoint blocks record: %w: %w", err, ErrCorrupt)
			}
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
	if err := s.checkBlocks(); err != nil {
		return nil, err
	}
	return s, nil
}

// checkBlocks validates the blob's block table against its joiner
// records, before any joiner is built: every reference must name rows
// of a table entry, and every entry must be named. It hands each joiner
// the table.
func (s *OperatorSnapshot) checkBlocks() error {
	if s.blocks == nil {
		return nil
	}
	for i := range s.Joiners {
		j := &s.Joiners[i]
		j.tables = []*join.SharedTable{s.blocks}
		mem, err := storeMem(j.State)
		if err != nil {
			return err
		}
		if err := s.blocks.Name(mem); err != nil {
			return fmt.Errorf("storage: checkpoint joiner %d: %w: %w", j.ID, err, ErrCorrupt)
		}
	}
	if err := s.blocks.CheckNamed(); err != nil {
		return fmt.Errorf("storage: checkpoint blocks record: %w: %w", err, ErrCorrupt)
	}
	return nil
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
	shared := false
	for _, s := range snaps {
		shared = shared || s.blocks != nil
	}
	head := snaps[len(snaps)-1]
	for ji := range head.Joiners {
		j := &head.Joiners[ji]
		var chain [][]byte
		var tables []*join.SharedTable
		for _, s := range snaps {
			for k := range s.Joiners {
				if s.Joiners[k].ID == j.ID {
					chain = append(chain, s.Joiners[k].State)
					tables = append(tables, s.blocks)
					break
				}
			}
		}
		j.StateChain = chain
		j.tables = nil
		if !shared {
			continue
		}
		// Every joiner is counted before any is restored, so each
		// surviving table entry decodes into a block whose fan-out is
		// the number of joiners that view it.
		j.tables = tables
		mems := make([][]byte, len(chain))
		for i, p := range chain {
			var err error
			if mems[i], err = storeMem(p); err != nil {
				return nil, err
			}
		}
		if err := join.CountSharers(mems, tables); err != nil {
			return nil, fmt.Errorf("storage: checkpoint chain joiner %d: %w: %w", j.ID, err, ErrCorrupt)
		}
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
// Capture: the memory tier as a join.LocalCapture (arena views by
// value, their blocks by reference) and the spilled
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
// of the segment, encoded (prev is 0 in a full payload). full is the
// encoded length of all cur records, the segment's file length.
type spillCapture struct {
	prev, cur uint32
	recs      []byte
	full      int64
}

// Capture freezes the store for a snapshot that ships only state
// stored since wm was taken, when possible. A nil wm, or one
// invalidated by a spill-segment rewrite, captures a full snapshot
// (per-index rebuilds degrade just that index inside the memory
// payload). The returned watermark is valid to delta against only once
// the payload encoded from this capture has durably committed. full
// reports whether the payload is self-contained. A spilled record that
// cannot be read back fails the capture (err), which would otherwise
// be short: the checkpoint must not commit it.
func (s *Store) Capture(wm *StoreWatermark) (c *StoreCapture, next StoreWatermark, full bool, err error) {
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
		if seg == nil {
			continue
		}
		sc.full = seg.off
		if sc.cur == sc.prev {
			continue
		}
		sc.recs = make([]byte, 0, int(sc.cur-sc.prev)*recordHeader)
		var scratch []byte
		i := uint32(0)
		read := seg.scan(func(t join.Tuple) bool {
			if i >= sc.prev {
				scratch = encodeRecordInto(scratch, t)
				sc.recs = append(sc.recs, scratch...)
			}
			i++
			return true
		}, &s.Metrics)
		if !read {
			return nil, next, full, seg.err
		}
	}
	return c, next, full, nil
}

// Size is the exact length AppendTo writes with block table t.
func (c *StoreCapture) Size(t *join.BlockTable) int {
	n := 1 + 4 + c.mem.Size(t)
	for _, sc := range c.spill {
		n += 4 + len(sc.recs)
		if c.kind == storeSnapDelta {
			n += 4
		}
	}
	return n
}

// FullSize is the exact length AppendTo would write with block table
// t, built over full views, had the capture been full: the memory
// tier's LocalCapture.FullSize plus every spilled record. It encodes
// nothing.
func (c *StoreCapture) FullSize(t *join.BlockTable) int {
	n := 1 + 4 + c.mem.FullSize(t)
	for _, sc := range c.spill {
		n += 4 + int(sc.full)
	}
	return n
}

// AppendTo encodes the captured payload onto buf, in the store payload
// framing above, and returns the extended slice. The memory tier
// writes each view of a block t tables as a reference (nil t: the
// payload stands alone, as AppendSnapshotSince writes it).
func (c *StoreCapture) AppendTo(buf []byte, t *join.BlockTable) []byte {
	buf = append(buf, c.kind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.mem.Size(t)))
	buf = c.mem.AppendTo(buf, t)
	for _, sc := range c.spill {
		if c.kind == storeSnapDelta {
			buf = binary.LittleEndian.AppendUint32(buf, sc.prev)
		}
		buf = binary.LittleEndian.AppendUint32(buf, sc.cur)
		buf = append(buf, sc.recs...)
	}
	return buf
}

// AppendSnapshotSince is Capture followed by AppendTo on the calling
// goroutine: the payload a checkpoint of this store would commit. A
// capture that fails appends nothing, and Close reports its read.
func (s *Store) AppendSnapshotSince(buf []byte, wm *StoreWatermark) (out []byte, next StoreWatermark, full bool) {
	c, next, full, err := s.Capture(wm)
	if err != nil {
		return buf, next, full
	}
	return c.AppendTo(slices.Grow(buf, c.Size(nil)), nil), next, full
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

// storeMem returns the memory-tier payload of a store payload.
func storeMem(data []byte) ([]byte, error) {
	if len(data) < 5 {
		return nil, corruptf("store snapshot truncated (%d bytes)", len(data))
	}
	if kind := data[0]; kind != storeSnapFull && kind != storeSnapDelta {
		return nil, corruptf("store snapshot has unknown kind %d", kind)
	}
	memLen := int(binary.LittleEndian.Uint32(data[1:]))
	if memLen < 0 || 5+memLen > len(data) {
		return nil, corruptf("store snapshot memory tier claims %d bytes, %d remain", memLen, len(data)-5)
	}
	return data[5 : 5+memLen], nil
}

func parseStoreSnapshot(data []byte) (storeSnap, error) {
	var ss storeSnap
	mem, err := storeMem(data)
	if err != nil {
		return ss, err
	}
	ss.kind, ss.mem = data[0], mem
	off := 5 + len(mem)
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
			if err := checkRecord(data[off:]); err != nil {
				return ss, corruptf("store snapshot spill record %d/%d: %v", i, cnt, err)
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
	return s.restoreChain(payloads, nil)
}

// restoreChain is RestoreSnapshotChain with the block tables that
// resolve the payloads' references (join.LoadSharedChain).
func (s *Store) restoreChain(payloads [][]byte, tables []*join.SharedTable) error {
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
	if err := s.mem.LoadSharedChain(mems, tables); err != nil {
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
