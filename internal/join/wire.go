package join

import (
	"fmt"
	"unsafe"

	"repro/internal/matrix"
)

// Migrated state moves as columnar arena blocks. The sender writes the
// relocated tuples through writers of its own (a BlockEncoder): the
// stored old state (τ) is selected by one pass over the u column that
// copies the survivors row-wise, and the old-epoch arrivals (∆) are
// written as they are processed. A target joiner in the same process
// then receives the sealed blocks by pointer (Seal, AsPayload) —
// nothing is encoded or decoded; only a target behind a link gets bytes
// (AppendTo, the snapshot codec's framing), which its receiver decodes
// (DecodeBlocks) through a writer into the same BlockSet. Either way
// the blocks are installed through the adopt() path MergeFrom uses at
// migration finalization — state lands without re-inserting tuple by
// tuple.

// blockWireVersion guards the block payload layout; the transport
// frame already carries the outer protocol version and CRC, so this
// byte only has to catch a core/join revision mismatch inside an
// otherwise valid frame.
const blockWireVersion = 1

// BlockEncoder writes migrating tuples through one writer per side
// into per-side columnar arenas and hands them over whole: as a
// BlockSet by pointer (Seal) to an in-process receiver, or serialized
// as one block payload (AppendTo) for a link. The zero value is ready
// to use; both hand-overs reset it for the next batch.
type BlockEncoder struct {
	arenas  [2]tupleArena
	writers [2]BlockWriter
	bytes   [2]int64
	count   int
}

// Add buffers one tuple.
func (e *BlockEncoder) Add(t Tuple) {
	c, pos := e.writers[t.Rel].next(&e.arenas[t.Rel], tupleShape(&t))
	c.put(pos, &t)
	e.bytes[t.Rel] += t.Bytes()
	e.count++
}

// flush adds the rows each side's writer holds unpublished to its
// arena: the first step of either hand-over.
func (e *BlockEncoder) flush() {
	for side := range e.writers {
		e.writers[side].flush(&e.arenas[side])
	}
}

// Len reports how many tuples are buffered.
func (e *BlockEncoder) Len() int { return e.count }

// AppendTo serializes the buffered blocks onto buf and resets the
// encoder.
func (e *BlockEncoder) AppendTo(buf []byte) []byte {
	e.flush()
	buf = appendU8(buf, blockWireVersion)
	for side := range e.arenas {
		buf = appendU32(buf, uint32(e.arenas[side].n))
		buf = appendU64(buf, uint64(e.bytes[side]))
		buf = appendArena(buf, &e.arenas[side])
	}
	*e = BlockEncoder{}
	return buf
}

// addSelected copies into e the tuples of idx, all of side, whose u is
// in keep, calling ship each time e holds limit tuples, and returns how
// many it copied. An arena-backed index (hash, scan) is read one
// block's u values at a time (uRows), each tested against keep and the
// view's filter at once, and its survivors are copied row-wise into
// e's blocks, with no Tuple built; an ordered index goes through Scan.
func (e *BlockEncoder) addSelected(idx Index, side matrix.Side, keep matrix.Top, limit int, ship func()) int {
	if keep.None() {
		return 0
	}
	var a *tupleArena
	switch v := idx.(type) {
	case *HashIndex:
		a = &v.arena
	case *ScanIndex:
		a = &v.arena
	default:
		if o, ok := idx.(*OrderedIndex); ok {
			// ship may block, so no line tree's read lock may be held
			// across it: the segment folds into the own tree first.
			o.unshare()
		}
		n := 0
		idx.Scan(e.SelectFunc(keep, limit, ship, &n))
		return n
	}
	dst, w := &e.arenas[side], &e.writers[side]
	n := 0
	var buf [arenaChunk]uint64
	for _, v := range a.chunks {
		// A view's rows are the ones its filter keeps, so the selection
		// is the meet of the two sets: one top-bits test.
		sel := v.keep.meet(keep)
		if sel.top().None() {
			continue
		}
		lo, hi := v.span()
		for i, u := range v.c.uRows(lo, hi, &buf) {
			if !sel.has(u) {
				continue
			}
			e.bytes[side] += w.copyRow(dst, v.c, lo+int32(i))
			e.count++
			if n++; e.count >= limit {
				ship() // resets *e in place, so dst and w stay e's side's
			}
		}
	}
	return n
}

// SelectFunc returns a Scan callback that adds each tuple whose u is in
// keep to e, counting it in *n and calling ship whenever e holds limit
// tuples: the selection for state not held in arena blocks (an ordered
// index, a spill segment).
func (e *BlockEncoder) SelectFunc(keep matrix.Top, limit int, ship func(), n *int) func(Tuple) bool {
	return func(t Tuple) bool {
		if keep.Has(t.U) {
			e.Add(t)
			if *n++; e.count >= limit {
				ship()
			}
		}
		return true
	}
}

// Seal hands the buffered blocks over as a BlockSet — what an
// in-process receiver adopts, with nothing encoded or decoded — and
// resets the encoder. The blocks become the receiver's; the encoder
// starts the next batch in fresh ones.
func (e *BlockEncoder) Seal() *BlockSet {
	e.flush()
	bs := &BlockSet{arenas: e.arenas, bytes: e.bytes}
	*e = BlockEncoder{}
	return bs
}

// BlockSet is a block payload ready to install: per side, an adoptable
// columnar arena and its byte volume. It comes from Seal in process and
// from DecodeBlocks across a link.
type BlockSet struct {
	arenas [2]tupleArena
	bytes  [2]int64
}

// DecodeBlocks parses a payload produced by BlockEncoder.AppendTo.
func DecodeBlocks(data []byte) (*BlockSet, error) {
	r := &snapReader{data: data}
	if v := r.u8("block version"); r.err == nil && v != blockWireVersion {
		return nil, fmt.Errorf("join: block payload version %d, want %d", v, blockWireVersion)
	}
	bs := &BlockSet{}
	var recs [2][]blockRecord
	for side := range bs.arenas {
		n := int(r.u32("block tuple count"))
		bytes := int64(r.u64("block byte count"))
		var got int
		recs[side], got = readBlocks(r)
		if r.err != nil {
			return nil, r.err
		}
		if got != n {
			return nil, fmt.Errorf("join: block payload side %d holds %d tuples, header says %d", side, got, n)
		}
		bs.bytes[side] = bytes
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("join: block payload has %d trailing bytes", len(data)-r.off)
	}
	for side := range bs.arenas {
		var w BlockWriter
		writeBlocks(recs[side], &w, &bs.arenas[side])
	}
	return bs, nil
}

// AsPayload returns bs as a zero-length byte slice whose data pointer
// is bs itself: how a block set handed over in process rides the
// payload field that carries serialized blocks across a link, without
// widening the message that holds it. PayloadBlocks recovers bs. A
// serialized payload is never empty, and core's message decoder rejects
// a message whose payload is empty, so bytes that crossed a link never
// read as a block set.
func (bs *BlockSet) AsPayload() []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(bs)), 0)
}

// PayloadBlocks returns the block set p carries by pointer (see
// AsPayload), or nil when p is serialized bytes for DecodeBlocks.
func PayloadBlocks(p []byte) *BlockSet {
	if len(p) != 0 || cap(p) != 0 || unsafe.SliceData(p) == nil {
		return nil
	}
	return (*BlockSet)(unsafe.Pointer(unsafe.SliceData(p)))
}

// Len reports one side's tuple count.
func (bs *BlockSet) Len(side matrix.Side) int { return bs.arenas[side].n }

// Tuples reports the total tuple count across both sides.
func (bs *BlockSet) Tuples() int { return bs.arenas[0].n + bs.arenas[1].n }

// Bytes reports the total tuple byte volume across both sides.
func (bs *BlockSet) Bytes() int64 { return bs.bytes[0] + bs.bytes[1] }

// AppendSide appends one side's tuples to dst, in block order,
// and returns the extended slice: the run a receiver probes with.
func (bs *BlockSet) AppendSide(dst []Tuple, side matrix.Side) []Tuple {
	for _, v := range bs.arenas[side].chunks {
		lo, hi := v.span()
		for pos := lo; pos < hi; pos++ {
			dst = append(dst, v.c.at(pos))
		}
	}
	return dst
}

// AdoptBlocks installs the blocks into l, consuming bs. Arena-
// backed indexes (hash, scan) view the blocks as they are — the whole
// point of shipping blocks — and a hash index indexes their rows in its
// own slot index, which a migration's finalize then hands over with
// the rest of µ (HashIndex.MergeFrom); ordered (band) indexes fall back
// to scan-and-insert, since their tree interleaves with tuple order.
func (l *Local) AdoptBlocks(bs *BlockSet) {
	adoptIndex(l.r, &bs.arenas[matrix.SideR], bs.bytes[matrix.SideR])
	adoptIndex(l.s, &bs.arenas[matrix.SideS], bs.bytes[matrix.SideS])
	*bs = BlockSet{}
}

// adoptIndex merges a bare block-set arena into dst through the existing
// MergeFrom machinery by dressing it as a donor index of dst's own
// kind with no slot index, whose views a hash index indexes in its own.
func adoptIndex(dst Index, a *tupleArena, bytes int64) {
	switch d := dst.(type) {
	case *HashIndex:
		d.MergeFrom(&HashIndex{arena: *a, bytes: bytes})
	case *ScanIndex:
		d.MergeFrom(&ScanIndex{arena: *a, bytes: bytes})
	default:
		a.scan(func(t Tuple) bool { dst.Insert(t); return true })
	}
}
