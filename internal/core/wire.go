package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/storage"
)

// Wire form of the operator's message plane. A batch envelope
// ([]message) serializes as one transport frame payload: the
// destination joiner id, the message count, and per message a small
// fixed header plus the tuple in the spill segment's record encoding
// (storage.AppendRecord) — one codec for disk and network. Framing,
// CRC, and versioning live one layer down in internal/transport.

// wirePool recycles encode scratch for the blocking data-plane sends,
// which run on the reshuffler goroutines at stream pace.
var wirePool slicePool[byte]

func getWire() []byte { return wirePool.get(4096) }

func putWire(b []byte) { wirePool.put(b) }

// msgWireHeader is the per-message fixed prefix: kind, flags
// (bit0 expand, bit1 probeOnly), from, epoch, mapping N, mapping M.
const msgWireHeader = 1 + 1 + 4 + 4 + 4 + 4

// appendEnvelope serializes dest plus the batch b onto buf.
func appendEnvelope(buf []byte, dest int, b []message) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(dest))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b)))
	for i := range b {
		m := &b[i]
		var flags byte
		if m.expand {
			flags |= 1
		}
		if m.probeOnly {
			flags |= 2
		}
		buf = append(buf, byte(m.kind), flags)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(m.from))
		buf = binary.LittleEndian.AppendUint32(buf, m.epoch)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(m.mapping.N))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(m.mapping.M))
		buf = storage.AppendRecord(buf, m.tuple)
	}
	return buf
}

// envelopeDest peeks an envelope's destination without decoding the
// batch, so the coordinator can forward worker→worker migration
// envelopes untouched.
func envelopeDest(payload []byte) (int, error) {
	if len(payload) < 8 {
		return 0, fmt.Errorf("core: envelope truncated: %d bytes", len(payload))
	}
	return int(binary.LittleEndian.Uint32(payload)), nil
}

// decodeEnvelope parses an envelope payload into a pooled batch; the
// caller owns the returned slice (recycle via putBatch). Every read is
// bounds-checked: the transport CRC has already vouched for the bytes,
// but a version-skewed or buggy peer must surface as an error, not a
// panic.
func decodeEnvelope(payload []byte) (dest int, b []message, err error) {
	if len(payload) < 8 {
		return 0, nil, fmt.Errorf("core: envelope truncated: %d bytes", len(payload))
	}
	dest = int(binary.LittleEndian.Uint32(payload))
	count := int(binary.LittleEndian.Uint32(payload[4:]))
	if count < 0 || count > (len(payload)-8)/(msgWireHeader+storage.RecordHeaderLen)+1 {
		return 0, nil, fmt.Errorf("core: envelope claims %d messages in %d bytes", count, len(payload))
	}
	b = getBatch(count)
	off := 8
	for i := 0; i < count; i++ {
		if len(payload)-off < msgWireHeader {
			putBatch(b)
			return 0, nil, fmt.Errorf("core: envelope truncated in message %d header", i)
		}
		kind := msgKind(payload[off])
		flags := payload[off+1]
		from := int(binary.LittleEndian.Uint32(payload[off+2:]))
		epoch := binary.LittleEndian.Uint32(payload[off+6:])
		mapN := int(binary.LittleEndian.Uint32(payload[off+10:]))
		mapM := int(binary.LittleEndian.Uint32(payload[off+14:]))
		off += msgWireHeader
		t, n, rerr := storage.ReadRecord(payload[off:])
		if rerr != nil {
			putBatch(b)
			return 0, nil, fmt.Errorf("core: envelope message %d: %w", i, rerr)
		}
		off += n
		b = append(b, message{
			tuple:     t,
			mapping:   matrix.Mapping{N: mapN, M: mapM},
			from:      from,
			epoch:     epoch,
			kind:      kind,
			expand:    flags&1 != 0,
			probeOnly: flags&2 != 0,
		})
	}
	if off != len(payload) {
		putBatch(b)
		return 0, nil, fmt.Errorf("core: envelope has %d trailing bytes", len(payload)-off)
	}
	return dest, b, nil
}

// appendAck serializes a joiner's migration ack.
func appendAck(buf []byte, id int) []byte {
	return binary.LittleEndian.AppendUint32(buf, uint32(id))
}

func decodeAck(payload []byte) (int, error) {
	if len(payload) != 4 {
		return 0, fmt.Errorf("core: ack payload is %d bytes, want 4", len(payload))
	}
	return int(binary.LittleEndian.Uint32(payload)), nil
}

// appendPairs serializes a remote joiner's result run: the joiner id,
// the pair count, then each pair's R and S tuples as records.
func appendPairs(buf []byte, id int, ps []join.Pair) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ps)))
	for i := range ps {
		buf = storage.AppendRecord(buf, ps[i].R)
		buf = storage.AppendRecord(buf, ps[i].S)
	}
	return buf
}

// decodePairsInto parses a pairs payload, appending onto scratch[:0]
// so the receiver reuses one buffer across frames.
func decodePairsInto(scratch []join.Pair, payload []byte) (id int, ps []join.Pair, err error) {
	if len(payload) < 8 {
		return 0, nil, fmt.Errorf("core: pairs payload truncated: %d bytes", len(payload))
	}
	id = int(binary.LittleEndian.Uint32(payload))
	count := int(binary.LittleEndian.Uint32(payload[4:]))
	if count < 0 || count > (len(payload)-8)/(2*storage.RecordHeaderLen)+1 {
		return 0, nil, fmt.Errorf("core: pairs payload claims %d pairs in %d bytes", count, len(payload))
	}
	ps = scratch[:0]
	off := 8
	for i := 0; i < count; i++ {
		r, n, rerr := storage.ReadRecord(payload[off:])
		if rerr != nil {
			return 0, nil, fmt.Errorf("core: pairs payload pair %d (R): %w", i, rerr)
		}
		off += n
		s, n, rerr := storage.ReadRecord(payload[off:])
		if rerr != nil {
			return 0, nil, fmt.Errorf("core: pairs payload pair %d (S): %w", i, rerr)
		}
		off += n
		ps = append(ps, join.Pair{R: r, S: s})
	}
	if off != len(payload) {
		return 0, nil, fmt.Errorf("core: pairs payload has %d trailing bytes", len(payload)-off)
	}
	return id, ps, nil
}

// helloMsg is the coordinator's opening frame on a worker link: the
// job description a worker needs to build bit-identical joiners —
// everything else (mapping steps, epochs) rides the normal message
// plane. The predicate travels as kind/width/name, which is why
// distributed mode requires a serializable predicate (no Theta
// closure). Hello is a one-per-connection control frame, so JSON's
// convenience wins over the record codec here.
type helloMsg struct {
	J            int
	NumRe        int
	Ids          []int // joiner ids this worker hosts
	PredKind     uint8
	PredWidth    int64
	PredName     string
	Seed         int64
	InitialN     int
	InitialM     int
	BatchSize    int
	DataQueueCap int
	CapBytes     int64 // per-joiner store budget; spill dir stays worker-local
}

func encodeHello(h helloMsg) []byte {
	b, err := json.Marshal(h)
	if err != nil {
		panic(fmt.Sprintf("core: encode hello: %v", err)) // fixed struct, cannot fail
	}
	return b
}

func decodeHello(payload []byte) (helloMsg, error) {
	var h helloMsg
	if err := json.Unmarshal(payload, &h); err != nil {
		return helloMsg{}, fmt.Errorf("core: decode hello: %w", err)
	}
	if h.J <= 0 || h.NumRe <= 0 || len(h.Ids) == 0 {
		return helloMsg{}, fmt.Errorf("core: hello names J=%d reshufflers=%d hosted=%d", h.J, h.NumRe, len(h.Ids))
	}
	for _, id := range h.Ids {
		if id < 0 || id >= h.J {
			return helloMsg{}, fmt.Errorf("core: hello hosts out-of-range joiner %d (J=%d)", id, h.J)
		}
	}
	return h, nil
}

// helloPred reconstructs the predicate a hello describes.
func helloPred(h helloMsg) join.Predicate {
	return join.Predicate{Kind: join.Kind(h.PredKind), Width: h.PredWidth, Name: h.PredName}
}
