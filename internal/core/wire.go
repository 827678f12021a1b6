package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/storage"
)

// Wire form of the operator's planes, one transport frame payload per
// hand-off. A data envelope (KindData) crosses a worker link once for
// all the joiners it reaches there: its payload is the destination
// count and joiner ids, the envelope header (the per-message form's
// fixed prefix below and a checkpoint marker's id), and the body as
// one column record (join.AppendColumnRecord): the key, aux and seq
// columns, 24 bytes a row, behind a header whose rule derives every u
// from the job's seed, which the hello already carried, or leaves it
// zero, and holds one meta word; a u, meta or payload column follows
// only when some row needs it. The worker reads the columns straight
// into the envelope's tuples and writes them into its frame line under
// the header's rule (fanOut), testing no row. A
// migration-plane message (KindMig) is its one destination joiner id
// followed by the message in the per-message form: a small fixed
// header plus the tuple as a spill record (storage.AppendRecord), the
// codec result pairs use too. Framing, CRC, and versioning live one
// layer down in internal/transport.

// ErrBadEnvelope is the error, wrapped with the details, that the frame
// decoders return for a payload that does not parse: a truncated
// header, a count the payload cannot hold, a bad record, or trailing
// bytes. The transport CRC has already vouched for the bytes, so this
// is a version-skewed or buggy peer, and it must surface as an error,
// never a panic.
var ErrBadEnvelope = errors.New("core: malformed envelope")

// wirePool recycles encode scratch for the blocking data-plane sends,
// which run on the reshuffler goroutines at stream pace.
var wirePool slicePool[byte]

func getWire() []byte { return wirePool.get(4096) }

func putWire(b []byte) { wirePool.put(b) }

// queuedPools recycles the buffers of the frames that wait in a peer's
// out-queue (pairs and acks), one pool per power-of-two capacity from
// 4 B to 256 KiB, so a queued frame pins less than twice its bytes
// however far the queue backs up.
var queuedPools [maxQueuedShift - minQueuedShift + 1]slicePool[byte]

const (
	minQueuedShift = 2  // an ack's 4 bytes
	maxQueuedShift = 18 // writeBatchBytes
)

// getQueued returns an empty buffer for an n-byte queued frame: its
// capacity is the power of two at or above n (at least 4), so below 2n,
// from the pool of that size. A frame past 256 KiB gets a buffer of its
// own, which putQueued drops.
func getQueued(n int) []byte {
	k := max(bits.Len(uint(max(n, 1)-1)), minQueuedShift)
	if k > maxQueuedShift {
		return make([]byte, 0, n)
	}
	return queuedPools[k-minQueuedShift].get(1 << k)
}

// putQueued recycles a buffer getQueued returned into the pool of its
// capacity.
func putQueued(b []byte) {
	k := bits.Len(uint(cap(b))) - 1
	if k >= minQueuedShift && k <= maxQueuedShift && cap(b) == 1<<k {
		queuedPools[k-minQueuedShift].put(b)
	}
}

// msgWireHeader is the per-message fixed prefix: kind, flags (bit0
// expand; every other bit must be zero), from, epoch, mapping N,
// mapping M.
const msgWireHeader = 1 + 1 + 4 + 4 + 4 + 4

// dataWireHeader is a data envelope header's form: the fixed prefix and
// the one tuple field a data-plane header uses, a checkpoint marker's
// id in tuple.Seq (message.go); no other header carries a tuple.
const dataWireHeader = msgWireHeader + 8

// appendHeader serializes m's fixed prefix onto buf.
func appendHeader(buf []byte, m *message) []byte {
	var flags byte
	if m.expand {
		flags |= 1
	}
	buf = append(buf, byte(m.kind), flags)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.from))
	buf = binary.LittleEndian.AppendUint32(buf, m.epoch)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.mapping.N))
	return binary.LittleEndian.AppendUint32(buf, uint32(m.mapping.M))
}

// readHeader parses a message's fixed prefix from the front of
// payload.
func readHeader(payload []byte) (message, error) {
	if len(payload) < msgWireHeader {
		return message{}, fmt.Errorf("%w: message header truncated at %d of %d bytes", ErrBadEnvelope, len(payload), msgWireHeader)
	}
	flags := payload[1]
	if flags&^1 != 0 {
		return message{}, fmt.Errorf("%w: message flags %#x", ErrBadEnvelope, flags)
	}
	return message{
		kind:    msgKind(payload[0]),
		from:    int(binary.LittleEndian.Uint32(payload[2:])),
		epoch:   binary.LittleEndian.Uint32(payload[6:]),
		mapping: matrix.Mapping{N: int(binary.LittleEndian.Uint32(payload[10:])), M: int(binary.LittleEndian.Uint32(payload[14:]))},
		expand:  flags&1 != 0,
	}, nil
}

// appendMessage serializes m in the per-message form onto buf: the
// fixed prefix, then the tuple as a record.
func appendMessage(buf []byte, m *message) []byte {
	return storage.AppendRecord(appendHeader(buf, m), m.tuple)
}

// readMessage parses one message in the per-message form from the
// front of payload, returning it and the bytes it took.
func readMessage(payload []byte) (message, int, error) {
	m, err := readHeader(payload)
	if err != nil {
		return message{}, 0, err
	}
	t, n, err := storage.ReadRecord(payload[msgWireHeader:])
	if err != nil {
		return message{}, 0, fmt.Errorf("%w: message tuple: %w", ErrBadEnvelope, err)
	}
	if t.Payload != nil && len(t.Payload) == 0 {
		// No message ships an empty payload, and in process an empty
		// payload on a kMigBlocks message is a block set's handle
		// (join.PayloadBlocks): bytes off a link must never read as one.
		return message{}, 0, fmt.Errorf("%w: message tuple with an empty payload", ErrBadEnvelope)
	}
	m.tuple = t
	return m, msgWireHeader + n, nil
}

// frameDest peeks a KindMig payload's destination joiner id without
// decoding the rest, so the coordinator can forward worker→worker
// migration frames untouched. KindData payloads carry a destination
// list instead (decodeData).
func frameDest(payload []byte) (int, error) {
	if len(payload) < 4 {
		return 0, fmt.Errorf("%w: destination truncated at %d bytes", ErrBadEnvelope, len(payload))
	}
	return int(binary.LittleEndian.Uint32(payload)), nil
}

// appendMig serializes a migration-plane message for dest onto buf.
func appendMig(buf []byte, dest int, m *message) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(dest))
	return appendMessage(buf, m)
}

// decodeMig parses a migration-plane payload.
func decodeMig(payload []byte) (dest int, m message, err error) {
	if dest, err = frameDest(payload); err != nil {
		return 0, message{}, err
	}
	m, n, err := readMessage(payload[4:])
	if err != nil {
		return 0, message{}, err
	}
	if 4+n != len(payload) {
		return 0, message{}, fmt.Errorf("%w: %d trailing bytes", ErrBadEnvelope, len(payload)-4-n)
	}
	return dest, m, nil
}

// appendData serializes data envelope e for the joiners in dests onto
// buf: the destination count and ids, the envelope header
// (dataWireHeader), then the body as one column record, under the
// derived rule when the reshuffler derived every u (envelope.derived),
// so no row's u is written or tested.
func appendData(buf []byte, dests []int, e *envelope) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(dests)))
	for _, d := range dests {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d))
	}
	buf = appendHeader(buf, &e.hdr)
	buf = binary.LittleEndian.AppendUint64(buf, e.hdr.tuple.Seq)
	return join.AppendColumnRecord(buf, e.tuples, e.derived)
}

// decodeData parses a data-envelope payload: the destination ids,
// appended onto dests[:0] so the receiver reuses one buffer across
// frames, and the envelope, its body read from the column record
// straight into a pooled envelope holding one reference, which the
// caller hands on or releases, with derived u values taken from seed,
// the job's. It returns the body's record header too, which says how
// the rows' u and meta read. A payload naming no destination is
// malformed.
func decodeData(dests []int, payload []byte, seed uint64) ([]int, *envelope, join.ColumnRecord, error) {
	if len(payload) < 4 {
		return nil, nil, join.ColumnRecord{}, fmt.Errorf("%w: destination count truncated at %d bytes", ErrBadEnvelope, len(payload))
	}
	nd := uint64(binary.LittleEndian.Uint32(payload))
	if nd == 0 {
		return nil, nil, join.ColumnRecord{}, fmt.Errorf("%w: no destinations", ErrBadEnvelope)
	}
	if nd > uint64((len(payload)-4)/4) {
		return nil, nil, join.ColumnRecord{}, fmt.Errorf("%w: %d destinations claimed in %d bytes", ErrBadEnvelope, nd, len(payload)-4)
	}
	dests = dests[:0]
	off := 4
	for i := uint64(0); i < nd; i++ {
		dests = append(dests, int(binary.LittleEndian.Uint32(payload[off:])))
		off += 4
	}
	hdr, err := readHeader(payload[off:])
	if err != nil {
		return nil, nil, join.ColumnRecord{}, err
	}
	if len(payload)-off < dataWireHeader {
		return nil, nil, join.ColumnRecord{}, fmt.Errorf("%w: data header truncated at %d of %d bytes", ErrBadEnvelope, len(payload)-off, dataWireHeader)
	}
	hdr.tuple.Seq = binary.LittleEndian.Uint64(payload[off+msgWireHeader:])
	off += dataWireHeader
	e := getEnvelope(0)
	e.refs.Store(1)
	body, tuples, err := join.ReadColumnRecord(payload[off:], seed, e.tuples)
	if err != nil {
		e.release()
		return nil, nil, join.ColumnRecord{}, fmt.Errorf("%w: body: %w", ErrBadEnvelope, err)
	}
	e.tuples = tuples
	if off += body.Size(); off != len(payload) {
		e.release()
		return nil, nil, join.ColumnRecord{}, fmt.Errorf("%w: %d trailing bytes", ErrBadEnvelope, len(payload)-off)
	}
	e.hdr = hdr
	e.bytes = body.Bytes()
	return dests, e, body, nil
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

// pairsSize is the length appendPairs encodes ps in.
func pairsSize(ps []join.Pair) int {
	n := 8 + 2*storage.RecordHeaderLen*len(ps)
	for i := range ps {
		n += len(ps[i].R.Payload) + len(ps[i].S.Payload)
	}
	return n
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

// Bounds on the sizes a worker allocates from a hello before it runs
// anything: J joiner ports and metrics cells, NumRe source rings and
// each port's inbox of DataQueueCap/BatchSize envelopes. A coordinator
// validates its own configuration against the same bounds
// (checkWorkerBounds), so only a hostile or corrupt hello trips them on
// the worker.
const (
	maxWorkerJoiners      = 1 << 10
	maxWorkerReshufflers  = 1 << 10
	maxWorkerBatchSize    = 1 << 16
	maxWorkerDataQueueCap = 1 << 16
)

// checkWorkerBounds reports whether a distributed job's sizes fit the
// worker bounds: J a power of two (the grid route's rounded count), at
// least one reshuffler, and every size within its cap. A zero batch
// size or queue capacity takes the worker's default.
func checkWorkerBounds(j, numRe, batchSize, dataQueueCap int) error {
	switch {
	case j <= 0 || j > maxWorkerJoiners || j&(j-1) != 0:
		return fmt.Errorf("J=%d, want a power of two in [1, %d]", j, maxWorkerJoiners)
	case numRe <= 0 || numRe > maxWorkerReshufflers:
		return fmt.Errorf("%d reshufflers, want [1, %d]", numRe, maxWorkerReshufflers)
	case batchSize > maxWorkerBatchSize:
		return fmt.Errorf("batch size %d, want at most %d", batchSize, maxWorkerBatchSize)
	case dataQueueCap > maxWorkerDataQueueCap:
		return fmt.Errorf("data queue capacity %d, want at most %d", dataQueueCap, maxWorkerDataQueueCap)
	}
	return nil
}

func decodeHello(payload []byte) (helloMsg, error) {
	var h helloMsg
	if err := json.Unmarshal(payload, &h); err != nil {
		return helloMsg{}, fmt.Errorf("core: decode hello: %w", err)
	}
	if err := checkWorkerBounds(h.J, h.NumRe, h.BatchSize, h.DataQueueCap); err != nil {
		return helloMsg{}, fmt.Errorf("core: hello: %w", err)
	}
	if len(h.Ids) == 0 {
		return helloMsg{}, errors.New("core: hello hosts no joiners")
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
