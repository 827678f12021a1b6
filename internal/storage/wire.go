package storage

import (
	"encoding/binary"
	"fmt"

	"repro/internal/join"
	"repro/internal/matrix"
)

// The spill segment's record encoding doubles as a tuple wire format
// of the distributed data plane: internal/core serializes result pairs
// and migration messages record by record through these exported
// wrappers, so one codec covers disk and those frames and a format
// change cannot fork them. A data envelope's body crosses a link as a
// column record instead (join.AppendColumnRecord).

// RecordHeaderLen is the fixed prefix of an encoded record; the full
// record is RecordHeaderLen plus the payload length it encodes.
const RecordHeaderLen = recordHeader

// AppendRecord appends t in the record encoding onto buf and returns
// the extended slice.
func AppendRecord(buf []byte, t join.Tuple) []byte {
	n := len(buf)
	need := recordHeader + len(t.Payload)
	if cap(buf)-n < need {
		nb := make([]byte, n, (n+need)*3/2+64)
		copy(nb, buf)
		buf = nb
	}
	encodeRecordInto(buf[n:n:cap(buf)], t)
	return buf[:n+need]
}

// ReadRecord decodes one record from the front of buf, returning the
// tuple and the bytes consumed. Unlike the spill tier's internal
// decoder — which reads records it wrote at offsets it knows — this
// entry point bounds-checks, and rejects flag bits no encoder writes,
// so a truncated or skewed network payload surfaces as an error instead
// of a panic or a misread.
func ReadRecord(buf []byte) (join.Tuple, int, error) {
	if len(buf) < recordHeader {
		return join.Tuple{}, 0, fmt.Errorf("storage: record truncated: %d of %d header bytes", len(buf), recordHeader)
	}
	if err := checkRecord(buf); err != nil {
		return join.Tuple{}, 0, err
	}
	plen := int(binary.LittleEndian.Uint32(buf[38:]))
	if len(buf) < recordHeader+plen {
		return join.Tuple{}, 0, fmt.Errorf("storage: record payload truncated: %d of %d bytes", len(buf)-recordHeader, plen)
	}
	t, n := decodeRecord(buf)
	return t, n, nil
}

// SelectInto copies the stored tuples of side whose u is in keep into
// e, calling ship whenever e holds limit tuples, and returns how many
// it copied: the memory tier by its u columns
// (join.Local.SelectInto), the disk segment through its own scan.
func (s *Store) SelectInto(side matrix.Side, keep matrix.Top, e *join.BlockEncoder, limit int, ship func()) int {
	n := s.mem.SelectInto(side, keep, e, limit, ship)
	if seg := s.segs[side]; seg != nil && !keep.None() {
		seg.scan(e.SelectFunc(keep, limit, ship, &n), &s.Metrics)
	}
	return n
}

// AdoptBlocks installs a migrated-state block set, consuming it. An
// unbudgeted store adopts the arena blocks wholesale (the MergeFrom
// fast path); a budgeted store re-inserts per tuple so the spill budget
// keeps applying.
func (s *Store) AdoptBlocks(bs *join.BlockSet) {
	if s.cfg.CapBytes == 0 {
		s.mem.AdoptBlocks(bs)
		return
	}
	for _, side := range [2]matrix.Side{matrix.SideR, matrix.SideS} {
		s.InsertBatch(bs.AppendSide(nil, side))
	}
}
