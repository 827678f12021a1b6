package join

import (
	"fmt"

	"repro/internal/matrix"
)

// Wire form of migrated state: the sender accumulates the relocated
// tuples into columnar arena blocks and ships whole blocks (the
// snapshot codec's framing), whether the target joiner lives in this
// process or another. The receiver decodes the blocks once and installs
// them through the same adopt() path MergeFrom uses at migration
// finalization — state lands without re-inserting tuple by tuple.

// blockWireVersion guards the block payload layout; the transport
// frame already carries the outer protocol version and CRC, so this
// byte only has to catch a core/join revision mismatch inside an
// otherwise valid frame.
const blockWireVersion = 1

// BlockEncoder accumulates migrating tuples into per-side columnar
// arenas and serializes them as one block payload. The zero value is
// ready to use; AppendTo resets it for the next batch.
type BlockEncoder struct {
	arenas [2]tupleArena
	bytes  [2]int64
	count  int
}

// Add buffers one tuple.
func (e *BlockEncoder) Add(t Tuple) {
	e.arenas[t.Rel].append(&t)
	e.bytes[t.Rel] += t.Bytes()
	e.count++
}

// Len reports how many tuples are buffered.
func (e *BlockEncoder) Len() int { return e.count }

// AppendTo serializes the buffered blocks onto buf and resets the
// encoder.
func (e *BlockEncoder) AppendTo(buf []byte) []byte {
	buf = appendU8(buf, blockWireVersion)
	for side := range e.arenas {
		buf = appendU32(buf, uint32(e.arenas[side].n))
		buf = appendU64(buf, uint64(e.bytes[side]))
		buf = appendArena(buf, &e.arenas[side])
	}
	*e = BlockEncoder{}
	return buf
}

// BlockSet is a decoded block payload: per side, an adoptable columnar
// arena plus its tuple count and byte volume.
type BlockSet struct {
	arenas [2]tupleArena
	counts [2]int
	bytes  [2]int64
}

// DecodeBlocks parses a payload produced by BlockEncoder.AppendTo.
func DecodeBlocks(data []byte) (*BlockSet, error) {
	r := &snapReader{data: data}
	if v := r.u8("block version"); r.err == nil && v != blockWireVersion {
		return nil, fmt.Errorf("join: block payload version %d, want %d", v, blockWireVersion)
	}
	bs := &BlockSet{}
	for side := range bs.arenas {
		n := int(r.u32("block tuple count"))
		bytes := int64(r.u64("block byte count"))
		bs.arenas[side] = readArena(r)
		if r.err != nil {
			return nil, r.err
		}
		if bs.arenas[side].n != n {
			return nil, fmt.Errorf("join: block payload side %d holds %d tuples, header says %d",
				side, bs.arenas[side].n, n)
		}
		bs.counts[side] = n
		bs.bytes[side] = bytes
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("join: block payload has %d trailing bytes", len(data)-r.off)
	}
	return bs, nil
}

// Tuples reports the total tuple count across both sides.
func (bs *BlockSet) Tuples() int { return bs.counts[0] + bs.counts[1] }

// Bytes reports the total tuple byte volume across both sides.
func (bs *BlockSet) Bytes() int64 { return bs.bytes[0] + bs.bytes[1] }

// AppendSide appends one side's decoded tuples to dst, in block order,
// and returns the extended slice: the run a receiver probes with.
func (bs *BlockSet) AppendSide(dst []Tuple, side matrix.Side) []Tuple {
	for _, c := range bs.arenas[side].chunks {
		for pos := int32(0); pos < int32(c.n); pos++ {
			dst = append(dst, c.at(pos))
		}
	}
	return dst
}

// AdoptBlocks installs the decoded blocks into l, consuming bs. Arena-
// backed indexes (hash, scan) splice the blocks in wholesale — the
// whole point of shipping blocks — and rebuild only their directories;
// ordered (band) indexes fall back to scan-and-insert, since their
// tree interleaves with tuple order.
func (l *Local) AdoptBlocks(bs *BlockSet) {
	l.r = adoptIndex(l.r, &bs.arenas[matrix.SideR], bs.counts[matrix.SideR], bs.bytes[matrix.SideR])
	l.s = adoptIndex(l.s, &bs.arenas[matrix.SideS], bs.counts[matrix.SideS], bs.bytes[matrix.SideS])
	*bs = BlockSet{}
}

// adoptIndex merges a bare decoded arena into dst through the existing
// MergeFrom machinery by dressing it as a donor index of dst's own
// kind. MergeFrom only reads the donor's arena, tuple count (a presize
// hint), and byte volume, so no directory is built on the donor side.
func adoptIndex(dst Index, a *tupleArena, count int, bytes int64) Index {
	if a.n == 0 {
		return dst
	}
	switch d := dst.(type) {
	case *HashIndex:
		d.MergeFrom(&HashIndex{arena: *a, used: count, bytes: bytes})
		return d
	case *ScanIndex:
		d.MergeFrom(&ScanIndex{arena: *a, bytes: bytes})
		return d
	default:
		a.scan(func(t Tuple) bool { dst.Insert(t); return true })
		return dst
	}
}
