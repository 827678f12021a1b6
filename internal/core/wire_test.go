package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/join"
	"repro/internal/matrix"
)

// randomWireTuple builds a tuple exercising every encoded field,
// including dummies and payload-bearing tuples.
func randomWireTuple(rng *rand.Rand) join.Tuple {
	t := join.Tuple{
		Rel:   matrix.Side(rng.Intn(2)),
		Key:   rng.Int63() - rng.Int63(),
		Aux:   rng.Int63() - rng.Int63(),
		Size:  int32(rng.Intn(1 << 16)),
		U:     rng.Uint64(),
		Seq:   rng.Uint64(),
		Dummy: rng.Intn(8) == 0,
	}
	if rng.Intn(3) == 0 {
		t.Payload = make([]byte, 1+rng.Intn(256))
		rng.Read(t.Payload)
	}
	return t
}

func randomMessage(rng *rand.Rand) message {
	kinds := []msgKind{kTuple, kSignal, kEOS, kMigBegin, kMigDone, kCkpt, kMigBlocks}
	m := message{
		tuple:   randomWireTuple(rng),
		mapping: matrix.Mapping{N: 1 << rng.Intn(4), M: 1 << rng.Intn(4)},
		from:    rng.Intn(64),
		epoch:   rng.Uint32(),
		kind:    kinds[rng.Intn(len(kinds))],
		expand:  rng.Intn(4) == 0,
	}
	if m.kind == kMigBlocks {
		// The serialized block blob rides the payload.
		m.tuple.Payload = make([]byte, 64+rng.Intn(512))
		rng.Read(m.tuple.Payload)
	}
	return m
}

func sameTuple(a, b join.Tuple) bool {
	return a.Rel == b.Rel && a.Key == b.Key && a.Aux == b.Aux && a.Size == b.Size &&
		a.U == b.U && a.Seq == b.Seq && a.Dummy == b.Dummy && bytes.Equal(a.Payload, b.Payload)
}

func sameMessage(a, b message) bool {
	return sameTuple(a.tuple, b.tuple) && a.mapping == b.mapping && a.from == b.from &&
		a.epoch == b.epoch && a.kind == b.kind && a.expand == b.expand
}

// randomEnvelope builds a data envelope with a random header and up to
// 40 random tuples, or, one time in four, a header-only control
// envelope.
func randomEnvelope(rng *rand.Rand) *envelope {
	e := getEnvelope(0)
	e.hdr = randomMessage(rng)
	if rng.Intn(4) == 0 {
		return e
	}
	e.hdr.kind, e.hdr.mapping, e.hdr.expand, e.hdr.tuple = kTuple, matrix.Mapping{}, false, join.Tuple{}
	for n := rng.Intn(41); n > 0; n-- {
		t := randomWireTuple(rng)
		e.tuples = append(e.tuples, t)
		e.bytes += t.Bytes()
	}
	return e
}

// TestEnvelopeRoundTrip encodes random data envelopes — data and
// header-only control envelopes, dummy tuples, payload-bearing tuples,
// empty bodies — for 1…W destinations, and random migration-plane
// messages of every kind, and requires decodeData and decodeMig (and
// the frameDest peek of a migration frame) to reproduce them exactly.
func TestEnvelopeRoundTrip(t *testing.T) {
	const maxDests = 16 // every joiner of a J=16 grid on one worker
	rng := rand.New(rand.NewSource(3))
	var scratch []int
	for round := 0; round < 100; round++ {
		dests := make([]int, 1+round%maxDests)
		for i := range dests {
			dests[i] = rng.Intn(256)
		}
		e := randomEnvelope(rng)
		payload := appendData(nil, dests, e)
		got, de, err := decodeData(scratch, payload)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !slices.Equal(got, dests) || !sameMessage(de.hdr, e.hdr) || len(de.tuples) != len(e.tuples) || de.bytes != e.bytes {
			t.Fatalf("round %d: dests=%v header %+v, %d tuples, %d bytes; want dests=%v header %+v, %d tuples, %d bytes",
				round, got, de.hdr, len(de.tuples), de.bytes, dests, e.hdr, len(e.tuples), e.bytes)
		}
		for i := range e.tuples {
			if !sameTuple(de.tuples[i], e.tuples[i]) {
				t.Fatalf("round %d tuple %d: got %+v, want %+v", round, i, de.tuples[i], e.tuples[i])
			}
		}
		if de.refs.Load() != 1 {
			t.Fatalf("round %d: decoded envelope holds %d references, want 1", round, de.refs.Load())
		}
		de.release()
		scratch = got // reuse across frames, like the worker does

		dest := dests[0]
		m := randomMessage(rng)
		mig := appendMig(nil, dest, &m)
		if d, err := frameDest(mig); err != nil || d != dest {
			t.Fatalf("round %d: frameDest = %d, %v; want %d", round, d, err, dest)
		}
		d, gm, err := decodeMig(mig)
		if err != nil || d != dest || !sameMessage(gm, m) {
			t.Fatalf("round %d: migration message %+v decoded as %d, %+v, %v", round, m, d, gm, err)
		}
	}
}

// TestEnvelopeRejectsCorruption truncates a data envelope and a
// migration message at every byte boundary, corrupts the destination
// and tuple counts — zero destinations, more than the payload holds, a
// list cut short — sets a flag bit other than expand, and appends
// trailing bytes: every case must return an ErrBadEnvelope error, never
// panic or misparse. (On the wire the frame CRC catches
// these first; this guards the codec against version-skewed or buggy
// peers.)
func TestEnvelopeRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := getEnvelope(3)
	e.hdr = message{kind: kTuple, from: 2, epoch: 7, expand: true}
	for i := 0; i < 3; i++ {
		e.tuples = append(e.tuples, randomWireTuple(rng))
	}
	dests := []int{3, 7, 11}
	payload := appendData(nil, dests, e)
	m := randomMessage(rng)
	mig := appendMig(nil, 3, &m)
	bad := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrBadEnvelope) {
			t.Fatalf("%s: got %v, want an ErrBadEnvelope error", what, err)
		}
	}
	// corrupt returns payload with the u32 at off replaced by v.
	corrupt := func(off int, v uint32) []byte {
		c := append([]byte(nil), payload...)
		binary.LittleEndian.PutUint32(c[off:], v)
		return c
	}

	for cut := 0; cut < len(payload); cut++ {
		_, _, err := decodeData(nil, payload[:cut])
		bad(fmt.Sprintf("data cut=%d", cut), err)
	}
	for cut := 0; cut < len(mig); cut++ {
		_, _, err := decodeMig(mig[:cut])
		bad(fmt.Sprintf("migration cut=%d", cut), err)
	}
	_, _, err := decodeData(nil, corrupt(0, 0))
	bad("zero destinations", err)
	_, _, err = decodeData(nil, payload[:4+4*len(dests)-2])
	bad("cut inside the destination list", err)
	for _, n := range []uint32{uint32(len(payload)), 1 << 20, 0xffffffff} {
		_, _, err := decodeData(nil, corrupt(0, n))
		bad(fmt.Sprintf("destination count %d", n), err)
	}
	// The tuple count sits right before the records: a header-only copy
	// of the envelope encodes to everything up to and including it.
	countAt := len(appendData(nil, dests, &envelope{hdr: e.hdr})) - 4
	for _, count := range []uint32{4, 1 << 20, 0xffffffff} {
		_, _, err := decodeData(nil, corrupt(countAt, count))
		bad(fmt.Sprintf("count %d", count), err)
	}
	for _, flags := range []byte{2, 3, 0x80} {
		c := append([]byte(nil), payload...)
		c[4+4*len(dests)+1] = flags
		_, _, err = decodeData(nil, c)
		bad(fmt.Sprintf("data flags %#x", flags), err)
		c = append([]byte(nil), mig...)
		c[4+1] = flags
		_, _, err = decodeMig(c)
		bad(fmt.Sprintf("migration flags %#x", flags), err)
	}
	_, _, err = decodeData(nil, append(append([]byte(nil), payload...), 0xAA))
	bad("data trailing bytes", err)
	_, _, err = decodeMig(append(append([]byte(nil), mig...), 0xAA))
	bad("migration trailing bytes", err)
}

func TestAckRoundTrip(t *testing.T) {
	for _, id := range []int{0, 1, 63, 1 << 20} {
		got, err := decodeAck(appendAck(nil, id))
		if err != nil || got != id {
			t.Fatalf("ack %d: got %d, %v", id, got, err)
		}
	}
	if _, err := decodeAck([]byte{1, 2, 3}); err == nil {
		t.Fatal("short ack decoded")
	}
	if _, err := decodeAck([]byte{1, 2, 3, 4, 5}); err == nil {
		t.Fatal("long ack decoded")
	}
}

func TestPairsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var scratch []join.Pair
	for round := 0; round < 50; round++ {
		id := rng.Intn(64)
		pairs := make([]join.Pair, rng.Intn(20))
		for i := range pairs {
			pairs[i] = join.Pair{R: randomWireTuple(rng), S: randomWireTuple(rng)}
		}
		payload := appendPairs(nil, id, pairs)
		gotID, got, err := decodePairsInto(scratch, payload)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if gotID != id || len(got) != len(pairs) {
			t.Fatalf("round %d: id=%d len=%d, want id=%d len=%d", round, gotID, len(got), id, len(pairs))
		}
		for i := range pairs {
			if !sameTuple(got[i].R, pairs[i].R) || !sameTuple(got[i].S, pairs[i].S) {
				t.Fatalf("round %d pair %d mismatch", round, i)
			}
		}
		scratch = got // reuse across frames, like the receiver does

		for cut := 0; cut < len(payload); cut += 7 {
			if _, _, err := decodePairsInto(nil, payload[:cut]); err == nil && cut < len(payload) {
				t.Fatalf("round %d cut=%d: truncated pairs decoded", round, cut)
			}
		}
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := helloMsg{
		J: 8, NumRe: 2, Ids: []int{2, 3, 4}, PredKind: uint8(join.Band), PredWidth: 5,
		PredName: "band5", Seed: 42, InitialN: 2, InitialM: 4, BatchSize: 128,
		DataQueueCap: 16, CapBytes: 1 << 20,
	}
	got, err := decodeHello(encodeHello(h))
	if err != nil {
		t.Fatal(err)
	}
	if got.J != h.J || got.NumRe != h.NumRe || len(got.Ids) != 3 ||
		got.PredKind != h.PredKind || got.PredWidth != h.PredWidth || got.PredName != h.PredName ||
		got.Seed != h.Seed || got.CapBytes != h.CapBytes {
		t.Fatalf("hello round trip: got %+v", got)
	}
	p := helloPred(got)
	if p.Kind != join.Band || p.Width != 5 || p.Name != "band5" {
		t.Fatalf("helloPred: %+v", p)
	}

	for _, bad := range []helloMsg{
		{J: 0, NumRe: 1, Ids: []int{0}},
		{J: 8, NumRe: 0, Ids: []int{0}},
		{J: 8, NumRe: 1},
		{J: 8, NumRe: 1, Ids: []int{8}},
		{J: 8, NumRe: 1, Ids: []int{-1}},
		// Sizes a worker would allocate before running anything: J
		// must be a power of two, and every size stays under its cap.
		{J: 6, NumRe: 1, Ids: []int{0}},
		{J: 2 * maxWorkerJoiners, NumRe: 1, Ids: []int{0}},
		{J: 1 << 40, NumRe: 1, Ids: []int{0}},
		{J: 8, NumRe: maxWorkerReshufflers + 1, Ids: []int{0}},
		{J: 8, NumRe: 1 << 30, Ids: []int{0}},
		{J: 8, NumRe: 1, Ids: []int{0}, BatchSize: maxWorkerBatchSize + 1},
		{J: 8, NumRe: 1, Ids: []int{0}, DataQueueCap: maxWorkerDataQueueCap + 1},
		{J: 8, NumRe: 1, Ids: []int{0}, DataQueueCap: 1 << 40},
	} {
		if _, err := decodeHello(encodeHello(bad)); err == nil {
			t.Fatalf("invalid hello %+v decoded", bad)
		}
	}
	if _, err := decodeHello([]byte("{not json")); err == nil {
		t.Fatal("garbage hello decoded")
	}
	// A field this build no longer knows (a retired knob an older
	// coordinator still sends) is ignored, not rejected.
	if _, err := decodeHello([]byte(`{"J":8,"NumRe":1,"Ids":[0],"RetiredKnob":256}`)); err != nil {
		t.Fatalf("hello with a retired field: %v", err)
	}
}

// TestRecordsKeepEmptyPayloads: data frames, pairs frames and messages
// carry a tuple's payload as it was — none, empty or bytes — so a
// worker's frame line and a coordinator's sink see what an in-process
// line and sink see. A message with an empty payload is malformed: in
// process that is a block set's handle (join.PayloadBlocks).
func TestRecordsKeepEmptyPayloads(t *testing.T) {
	payloads := [][]byte{nil, {}, {7}, nil, {}, {}}
	e := getEnvelope(0)
	e.hdr = message{kind: kTuple}
	var ps []join.Pair
	for i, p := range payloads {
		tp := join.Tuple{Rel: matrix.SideS, Key: int64(i), Seq: uint64(i + 1), Payload: p}
		e.tuples = append(e.tuples, tp)
		ps = append(ps, join.Pair{R: join.Tuple{Key: int64(i), Payload: payloads[len(payloads)-1-i]}, S: tp})
	}
	same := func(what string, i int, got, want []byte) {
		t.Helper()
		if (got == nil) != (want == nil) || !bytes.Equal(got, want) {
			t.Fatalf("%s %d: payload %#v, want %#v", what, i, got, want)
		}
	}
	_, d, err := decodeData(nil, appendData(nil, []int{0}, e))
	if err != nil {
		t.Fatal(err)
	}
	for i := range e.tuples {
		same("data tuple", i, d.tuples[i].Payload, e.tuples[i].Payload)
	}
	_, got, err := decodePairsInto(nil, appendPairs(nil, 3, ps))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ps {
		same("pair R", i, got[i].R.Payload, ps[i].R.Payload)
		same("pair S", i, got[i].S.Payload, ps[i].S.Payload)
	}
	m := message{kind: kMigBlocks, tuple: join.Tuple{Payload: []byte{}}}
	if _, _, err := decodeMig(appendMig(nil, 1, &m)); !errors.Is(err, ErrBadEnvelope) {
		t.Fatalf("a message with an empty payload decoded: %v", err)
	}
}

// TestQueuedPairsPinTheirBytes backs up an uplink's out-queue with
// one-pair frames, as a worker does while its writer waits on a slow
// link: the queue must pin at most twice the frames' encoded bytes, not
// a 4 KiB wire buffer per 100-byte frame.
func TestQueuedPairsPinTheirBytes(t *testing.T) {
	p := newRemotePeer("test", nil, nil, func(error) {})
	rng := rand.New(rand.NewSource(65))
	for i := 0; i < 1000; i++ {
		pr := join.Pair{
			R: join.Tuple{Rel: matrix.SideR, Key: int64(i), Seq: uint64(2*i + 1)},
			S: join.Tuple{Rel: matrix.SideS, Key: int64(i), Seq: uint64(2*i + 2)},
		}
		if rng.Intn(2) == 0 {
			pr.S.Payload = make([]byte, rng.Intn(200))
		}
		p.queuePairs(i%16, []join.Pair{pr})
	}
	p.queueAck(3)
	var held, pinned int
	for {
		f, ok := p.out.TryPop()
		if !ok {
			break
		}
		held += len(f.Payload)
		pinned += cap(f.Payload)
	}
	if pinned > 2*held {
		t.Fatalf("the queue pins %d bytes for %d bytes of frames", pinned, held)
	}
	t.Logf("the queue pins %d bytes for %d bytes of frames", pinned, held)
}
