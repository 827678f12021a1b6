package join

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/matrix"
)

// The column record: a run of rows as the columns a block stores them
// in, the wire form of a worker data frame's body. Its header holds
// what a block header holds (arena.go) — the row count, the rule every
// row's u follows, one meta word and which optional columns are
// present — and each present column follows as a little-endian array:
//
//	rows      u32
//	flags     u8   bit 0 u derived, bit 1 u column, bit 2 meta column,
//	               bit 3 payload column; no other bit is set
//	meta      u64  every row's meta word (Size, Rel, Dummy) when there
//	               is no meta column, else the rows' side
//	key       rows x i64
//	aux       rows x i64
//	seq       rows x u64
//	u         rows x u64, with the u column
//	meta      rows x u64, with the meta column
//	payload   rows x u32 (0 for none, n+1 for n bytes), then the rows'
//	          bytes in row order, with the payload column
//
// Without a u column a row's u is zero or, under the derived rule,
// UMix(seed, seq) for the seed both ends already share (a job's seed):
// no seed goes on the wire. A row needs the u column when its u
// follows neither rule (a caller-set U, a reshuffler's dummy) and the
// meta column when its meta word differs from the first row's. So a
// run whose u values the sender derived and whose rows share one meta
// word costs 24 bytes a row, and a decoder that reads it builds no
// per-row shape: the header says how the rows read, and a block writer
// takes the rows under that rule (BlockWriter.AppendRecord).

// Column record flag bits.
const (
	recDerived    = 1 << 0
	recUCol       = 1 << 1
	recMetaCol    = 1 << 2
	recPayloadCol = 1 << 3
	recFlags      = recDerived | recUCol | recMetaCol | recPayloadCol
)

// recHeader is the column record header's length: rows, flags, meta.
const recHeader = 4 + 1 + 8

// metaMask holds the bits a meta word may set (Tuple.metaWord).
const metaMask = 1<<34 - 1

// ColumnRecord is the header of a decoded column record, with the
// length it took and its rows' summed Tuple.Bytes.
type ColumnRecord struct {
	rows  int
	flags uint8
	meta  uint64
	size  int
	bytes int64
}

// Len reports the record's row count.
func (r ColumnRecord) Len() int { return r.rows }

// Size reports the record's encoded length.
func (r ColumnRecord) Size() int { return r.size }

// Bytes reports the summed Tuple.Bytes of the record's rows.
func (r ColumnRecord) Bytes() int64 { return r.bytes }

// Side reports the side the header's meta word names: every row's
// side when the record has no meta column.
func (r ColumnRecord) Side() matrix.Side { return matrix.Side(r.meta >> 32 & 1) }

// MetaColumn reports whether the rows carry meta words of their own,
// which may differ from the header's in side too.
func (r ColumnRecord) MetaColumn() bool { return r.flags&recMetaCol != 0 }

// shape is the shape of the record's rows for a writer whose runs
// derive u from seed.
func (r ColumnRecord) shape(seed uint64) rowShape {
	sh := rowShape{
		payload: r.flags&recPayloadCol != 0,
		uCol:    r.flags&recUCol != 0,
		metaCol: r.flags&recMetaCol != 0,
		meta:    r.meta,
	}
	if r.flags&recDerived != 0 {
		sh.derived, sh.seed = true, seed
	}
	return sh
}

// AppendColumnRecord appends run as one column record onto buf. With
// derived set the caller vouches that every row's U is UMix(seed, Seq)
// for the seed its reader decodes with, and no u is written or tested;
// otherwise the u column is written, and dropped again when every u is
// zero. The meta column is written only when the rows' meta words
// differ, the payload column only when a row has a payload (an empty
// one included).
func AppendColumnRecord(buf []byte, run []Tuple, derived bool) []byte {
	n := len(run)
	var meta uint64
	if n > 0 {
		meta = run[0].metaWord()
	}
	at := len(buf)
	buf = slices.Grow(buf, recHeader+24*n)[:at+recHeader+24*n]
	cols := buf[at+recHeader:]
	key, aux, seq := cols[:8*n], cols[8*n:16*n], cols[16*n:24*n]
	var metaDiff, uAny uint64
	payload := false
	for i := range run {
		t := &run[i]
		binary.LittleEndian.PutUint64(key[8*i:], uint64(t.Key))
		binary.LittleEndian.PutUint64(aux[8*i:], uint64(t.Aux))
		binary.LittleEndian.PutUint64(seq[8*i:], t.Seq)
		metaDiff |= t.metaWord() ^ meta
		uAny |= t.U
		payload = payload || t.Payload != nil
	}
	var flags uint8
	switch {
	case derived:
		flags |= recDerived
	case uAny != 0:
		flags |= recUCol
		for i := range run {
			buf = binary.LittleEndian.AppendUint64(buf, run[i].U)
		}
	}
	if metaDiff != 0 {
		flags |= recMetaCol
		for i := range run {
			buf = binary.LittleEndian.AppendUint64(buf, run[i].metaWord())
		}
	}
	if payload {
		flags |= recPayloadCol
		for i := range run {
			var ln uint32
			if p := run[i].Payload; p != nil {
				ln = uint32(len(p)) + 1
			}
			buf = binary.LittleEndian.AppendUint32(buf, ln)
		}
		for i := range run {
			buf = append(buf, run[i].Payload...)
		}
	}
	binary.LittleEndian.PutUint32(buf[at:], uint32(n))
	buf[at+4] = flags
	binary.LittleEndian.PutUint64(buf[at+5:], meta)
	return buf
}

// ReadColumnRecord decodes the column record at the front of data,
// appending its rows onto dst: each row's u derived from seed under the
// derived rule, and its payload bytes copied, so nothing returned
// aliases data. A record whose header or columns do not fit data, with
// a flag bit no encoder writes, both a u rule and a u column, or a meta
// word with bits no tuple sets, is an error; dst is then returned
// unextended.
func ReadColumnRecord(data []byte, seed uint64, dst []Tuple) (ColumnRecord, []Tuple, error) {
	if len(data) < recHeader {
		return ColumnRecord{}, dst, fmt.Errorf("join: column record header truncated at %d of %d bytes", len(data), recHeader)
	}
	rows := uint64(binary.LittleEndian.Uint32(data))
	r := ColumnRecord{flags: data[4], meta: binary.LittleEndian.Uint64(data[5:])}
	switch {
	case r.flags&^recFlags != 0:
		return ColumnRecord{}, dst, fmt.Errorf("join: column record flags %#x", r.flags)
	case r.flags&recDerived != 0 && r.flags&recUCol != 0:
		return ColumnRecord{}, dst, fmt.Errorf("join: column record both derives u and carries a u column")
	case r.meta&^metaMask != 0:
		return ColumnRecord{}, dst, fmt.Errorf("join: column record meta word %#x", r.meta)
	}
	rowBytes := uint64(24)
	if r.flags&recUCol != 0 {
		rowBytes += 8
	}
	if r.flags&recMetaCol != 0 {
		rowBytes += 8
	}
	if r.flags&recPayloadCol != 0 {
		rowBytes += 4
	}
	body := data[recHeader:]
	if rows > uint64(len(body))/rowBytes {
		return ColumnRecord{}, dst, fmt.Errorf("join: column record of %d rows in %d bytes", rows, len(body))
	}
	n := int(rows)
	r.rows = n
	key, aux, seq := body[:8*n], body[8*n:16*n], body[16*n:24*n]
	off := 24 * n
	var us, metas, lens, payloads []byte
	if r.flags&recUCol != 0 {
		us, off = body[off:off+8*n], off+8*n
	}
	if r.flags&recMetaCol != 0 {
		metas, off = body[off:off+8*n], off+8*n
		for i := 0; i < n; i++ {
			if m := binary.LittleEndian.Uint64(metas[8*i:]); m&^metaMask != 0 {
				return ColumnRecord{}, dst, fmt.Errorf("join: column record row %d meta word %#x", i, m)
			}
		}
	}
	if r.flags&recPayloadCol != 0 {
		lens, off = body[off:off+4*n], off+4*n
		var total uint64
		for i := 0; i < n; i++ {
			if ln := binary.LittleEndian.Uint32(lens[4*i:]); ln > 0 {
				total += uint64(ln) - 1
			}
		}
		if total > uint64(len(body)-off) {
			return ColumnRecord{}, dst, fmt.Errorf("join: column record payloads of %d bytes in %d", total, len(body)-off)
		}
		payloads, off = body[off:off+int(total)], off+int(total)
	}
	r.size = recHeader + off

	at := len(dst)
	dst = slices.Grow(dst, n)[:at+n]
	out := dst[at:]
	derived := r.flags&recDerived != 0
	for i := range out {
		t := &out[i]
		t.Key = int64(binary.LittleEndian.Uint64(key[8*i:]))
		t.Aux = int64(binary.LittleEndian.Uint64(aux[8*i:]))
		t.Seq = binary.LittleEndian.Uint64(seq[8*i:])
		t.U = 0
		if derived {
			t.U = UMix(seed, t.Seq)
		}
		t.setMeta(r.meta)
		t.Payload = nil
	}
	if us != nil {
		for i := range out {
			out[i].U = binary.LittleEndian.Uint64(us[8*i:])
		}
	}
	if metas != nil {
		for i := range out {
			out[i].setMeta(binary.LittleEndian.Uint64(metas[8*i:]))
		}
	}
	if lens != nil {
		for i := range out {
			if ln := binary.LittleEndian.Uint32(lens[4*i:]); ln > 0 {
				out[i].Payload = append(make([]byte, 0, ln-1), payloads[:ln-1]...)
				payloads = payloads[ln-1:]
			}
		}
	}
	if metas == nil && lens == nil {
		r.bytes = int64(n) * metaBytes(r.meta, nil)
	} else {
		for i := range out {
			r.bytes += out[i].Bytes()
		}
	}
	return r, dst, nil
}
