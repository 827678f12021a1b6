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
	"repro/internal/transport"
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

// wireSeed is the job seed the wire tests' derived u values come from.
const wireSeed = 2014

// bodyShape is one kind of data frame body: how its tuples' u values
// and meta words read, so which header rule and columns its column
// record holds.
type bodyShape struct {
	name string
	// derived is what the envelope says: every U is
	// join.UMix(wireSeed, Seq).
	derived bool
	tuple   func(rng *rand.Rand, seq uint64) join.Tuple
}

// bodyShapes lists every body a data frame carries: u zero, u derived,
// a u column (caller-set U), a meta column (mixed sizes), a payload
// column (none, empty and bytes), reshuffler dummies (both columns),
// and random tuples of both sides (every column at once).
func bodyShapes() []bodyShape {
	plain := func(rng *rand.Rand, seq uint64) join.Tuple {
		return join.Tuple{Rel: matrix.SideS, Key: rng.Int63n(1000) - 500, Aux: rng.Int63(), Seq: seq, Size: 8}
	}
	derived := func(rng *rand.Rand, seq uint64) join.Tuple {
		t := plain(rng, seq)
		t.U = join.UMix(wireSeed, seq)
		return t
	}
	return []bodyShape{
		{"u-zero", false, plain},
		{"derived", true, derived},
		{"u-column", false, func(rng *rand.Rand, seq uint64) join.Tuple {
			t := plain(rng, seq)
			t.U = rng.Uint64()
			return t
		}},
		{"meta-column", true, func(rng *rand.Rand, seq uint64) join.Tuple {
			t := derived(rng, seq)
			t.Size = int32(rng.Intn(3) * 4)
			return t
		}},
		{"payloads", true, func(rng *rand.Rand, seq uint64) join.Tuple {
			t := derived(rng, seq)
			switch rng.Intn(3) {
			case 1:
				t.Payload = []byte{}
			case 2:
				t.Payload = make([]byte, 1+rng.Intn(40))
				rng.Read(t.Payload)
			}
			return t
		}},
		{"dummies", false, func(rng *rand.Rand, seq uint64) join.Tuple {
			t := derived(rng, seq)
			if seq%5 == 0 {
				// A reshuffler's padding: Seq 0, a drawn u.
				t.Dummy, t.Seq, t.U = true, 0, rng.Uint64()
			}
			return t
		}},
		{"random", false, func(rng *rand.Rand, _ uint64) join.Tuple { return randomWireTuple(rng) }},
	}
}

// shapedEnvelope builds a data envelope of n tuples of shape sh under a
// random header.
func shapedEnvelope(rng *rand.Rand, sh bodyShape, n int) *envelope {
	e := getEnvelope(n)
	e.hdr = message{kind: kTuple, from: rng.Intn(64), epoch: rng.Uint32()}
	e.derived = sh.derived
	for i := 0; i < n; i++ {
		t := sh.tuple(rng, uint64(i+1))
		e.tuples = append(e.tuples, t)
		e.bytes += t.Bytes()
	}
	return e
}

// ctrlEnvelope builds a header-only control envelope with a random
// header of a data-plane kind: a tuple only a checkpoint marker's id
// rides in (tuple.Seq).
func ctrlEnvelope(rng *rand.Rand) *envelope {
	e := getEnvelope(0)
	kinds := []msgKind{kSignal, kEOS, kCkpt}
	e.hdr = message{
		tuple:   join.Tuple{Seq: rng.Uint64()},
		mapping: matrix.Mapping{N: 1 << rng.Intn(4), M: 1 << rng.Intn(4)},
		from:    rng.Intn(64),
		epoch:   rng.Uint32(),
		kind:    kinds[rng.Intn(len(kinds))],
		expand:  rng.Intn(4) == 0,
	}
	return e
}

// randomEnvelope builds a data envelope of a random body shape with up
// to 40 tuples, or, one time in four, a header-only control envelope.
func randomEnvelope(rng *rand.Rand) *envelope {
	if rng.Intn(4) == 0 {
		return ctrlEnvelope(rng)
	}
	shapes := bodyShapes()
	return shapedEnvelope(rng, shapes[rng.Intn(len(shapes))], rng.Intn(41))
}

// bodyBytes is the length of e's body as a column record: the 13-byte
// header, 24 bytes a row, 8 more for a u column unless the envelope
// says every u is derived or every u is zero, 8 for a meta column when
// the rows' Size, Rel or Dummy differ, and 4 plus its bytes for a
// payload column when a row has a payload.
func bodyBytes(e *envelope) int {
	row, extra := 24, 0
	var uAny, metaDiff, payloads bool
	for _, t := range e.tuples {
		t0 := &e.tuples[0]
		uAny = uAny || t.U != 0
		metaDiff = metaDiff || t.Size != t0.Size || t.Rel != t0.Rel || t.Dummy != t0.Dummy
		payloads = payloads || t.Payload != nil
		extra += len(t.Payload)
	}
	if uAny && !e.derived {
		row += 8
	}
	if metaDiff {
		row += 8
	}
	if payloads {
		row += 4
	}
	return 13 + row*len(e.tuples) + extra
}

// TestEnvelopeRoundTrip encodes data envelopes of every body shape —
// u zero, u derived, a u column, a meta column, payloads that are nil,
// empty or bytes, dummies, random tuples of both sides — with empty,
// one-row, short and full-block bodies, and header-only control
// envelopes, for 1…16 destinations, and random migration-plane
// messages of every kind. decodeData and decodeMig (and the frameDest
// peek of a migration frame) must reproduce them exactly, nil payloads
// apart from empty ones, and each body must take the bytes its header
// rule and columns call for.
func TestEnvelopeRoundTrip(t *testing.T) {
	const maxDests = 16 // every joiner of a J=16 grid on one worker
	rng := rand.New(rand.NewSource(3))
	shapes := bodyShapes()
	var scratch []int
	for round := 0; round < 140; round++ {
		dests := make([]int, 1+round%maxDests)
		for i := range dests {
			dests[i] = rng.Intn(256)
		}
		var e *envelope
		switch sh := shapes[round%len(shapes)]; round / len(shapes) % 5 {
		case 0:
			e = shapedEnvelope(rng, sh, 0)
		case 1:
			e = shapedEnvelope(rng, sh, 1)
		case 2:
			e = shapedEnvelope(rng, sh, join.WindowRows)
		case 3:
			e = ctrlEnvelope(rng)
		default:
			e = shapedEnvelope(rng, sh, 2+rng.Intn(39))
		}
		payload := appendData(nil, dests, e)
		hdrOnly := len(appendData(nil, dests, &envelope{hdr: e.hdr}))
		if got, want := len(payload)-hdrOnly+13, bodyBytes(e); got != want {
			t.Fatalf("round %d: %d-tuple body encoded in %d bytes, want %d", round, len(e.tuples), got, want)
		}
		got, de, body, err := decodeData(scratch, payload, wireSeed)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !slices.Equal(got, dests) || !sameMessage(de.hdr, e.hdr) || len(de.tuples) != len(e.tuples) || de.bytes != e.bytes || body.Len() != len(e.tuples) {
			t.Fatalf("round %d: dests=%v header %+v, %d tuples, %d bytes; want dests=%v header %+v, %d tuples, %d bytes",
				round, got, de.hdr, len(de.tuples), de.bytes, dests, e.hdr, len(e.tuples), e.bytes)
		}
		for i := range e.tuples {
			if !sameTuple(de.tuples[i], e.tuples[i]) || (de.tuples[i].Payload == nil) != (e.tuples[i].Payload == nil) {
				t.Fatalf("round %d tuple %d: got %+v, want %+v", round, i, de.tuples[i], e.tuples[i])
			}
		}
		if len(e.tuples) > 0 && !body.MetaColumn() && body.Side() != e.tuples[0].Rel {
			t.Fatalf("round %d: body header names side %v, rows are %v", round, body.Side(), e.tuples[0].Rel)
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
// and row counts — zero destinations, more than the payload holds, a
// list cut short, zero rows or more than the body holds — sets a
// message flag bit other than expand, a body flag bit no encoder
// writes, both a u rule and a u column, or a meta word bit no tuple
// sets, clears the meta column bit of a body whose rows mix sides, and
// appends trailing bytes: every case must return an ErrBadEnvelope
// error, never panic or misparse. (On the wire the frame CRC catches
// these first; this guards the codec against version-skewed or buggy
// peers.)
func TestEnvelopeRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := getEnvelope(3)
	e.hdr = message{kind: kTuple, from: 2, epoch: 7, expand: true}
	for i := 0; i < 3; i++ {
		e.tuples = append(e.tuples, randomWireTuple(rng))
	}
	e.tuples[1].Rel = 1 - e.tuples[0].Rel // the rows mix sides: a meta column
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
	decode := func(p []byte) error {
		_, _, _, err := decodeData(nil, p, wireSeed)
		return err
	}
	// corrupt returns payload with the u32 at off replaced by v.
	corrupt := func(off int, v uint32) []byte {
		c := append([]byte(nil), payload...)
		binary.LittleEndian.PutUint32(c[off:], v)
		return c
	}

	for cut := 0; cut < len(payload); cut++ {
		bad(fmt.Sprintf("data cut=%d", cut), decode(payload[:cut]))
	}
	for cut := 0; cut < len(mig); cut++ {
		_, _, err := decodeMig(mig[:cut])
		bad(fmt.Sprintf("migration cut=%d", cut), err)
	}
	bad("zero destinations", decode(corrupt(0, 0)))
	bad("cut inside the destination list", decode(payload[:4+4*len(dests)-2]))
	for _, n := range []uint32{uint32(len(payload)), 1 << 20, 0xffffffff} {
		bad(fmt.Sprintf("destination count %d", n), decode(corrupt(0, n)))
	}
	// The body's column record starts with its row count, flag byte and
	// meta word: a header-only copy of the envelope encodes to
	// everything up to and including an empty record's 13 bytes.
	rowsAt := len(appendData(nil, dests, &envelope{hdr: e.hdr})) - 13
	flagsAt, metaAt := rowsAt+4, rowsAt+5
	for _, rows := range []uint32{0, 4, 1 << 20, 0xffffffff} {
		bad(fmt.Sprintf("row count %d", rows), decode(corrupt(rowsAt, rows)))
	}
	if flags := payload[flagsAt]; flags&(1<<2) == 0 {
		t.Fatalf("body flags %#x: a body whose rows mix sides has no meta column", flags)
	}
	for _, flip := range []byte{1 << 4, 1 << 7, 1 << 0 /* derived beside the u column */, 1 << 2 /* no meta column */} {
		c := append([]byte(nil), payload...)
		c[flagsAt] ^= flip
		bad(fmt.Sprintf("body flags %#x", c[flagsAt]), decode(c))
	}
	c := append([]byte(nil), payload...)
	c[metaAt+5] |= 1 << 2 // bit 42 of the meta word
	bad("meta word bit 42", decode(c))
	for _, flags := range []byte{2, 3, 0x80} {
		c := append([]byte(nil), payload...)
		c[4+4*len(dests)+1] = flags
		bad(fmt.Sprintf("data flags %#x", flags), decode(c))
		c = append([]byte(nil), mig...)
		c[4+1] = flags
		_, _, err := decodeMig(c)
		bad(fmt.Sprintf("migration flags %#x", flags), err)
	}
	bad("data trailing bytes", decode(append(append([]byte(nil), payload...), 0xAA)))
	_, _, err := decodeMig(append(append([]byte(nil), mig...), 0xAA))
	bad("migration trailing bytes", err)
}

// TestDataFrameBytesPerRow routes a block's worth of R tuples whose u
// the reshuffler derives to one row of a (1,4) grid whose four joiners
// sit behind one link: the one full envelope crosses it as one data
// frame, which DataFrameBytes counts at no more than 25 bytes a row
// (key, aux and seq, and the frame's fixed part spread over the
// block), and which a worker decodes into the routed tuples.
func TestDataFrameBytesPerRow(t *testing.T) {
	cfg := Config{J: 4, Pred: join.EquiJoin("eq", nil), Initial: matrix.Mapping{N: 1, M: 4}, BatchSize: join.WindowRows, Seed: 9}
	op := mustOperator(t, cfg)
	near, far := transport.Pipe()
	defer near.Close()
	p := newRemotePeer("pipe", near, op.met, op.stop, func(err error) { t.Error(err) })
	op.topo.remote = []*remotePeer{p, p, p, p}
	r := handReshuffler(op)
	r.seed, r.blockCap = uint64(cfg.Seed), true
	tuples := make([]join.Tuple, join.WindowRows)
	for i := range tuples {
		tuples[i] = join.Tuple{Rel: matrix.SideR, Key: int64(i * 7), Aux: int64(i), Seq: uint64(i + 1), Size: 8}
	}
	r.routeBatch(tuples)
	if n := op.met.BatchesSent.Load(); n != 1 {
		t.Fatalf("%d envelopes shipped, want the one full block", n)
	}
	sent := op.met.DataFrameBytes.Load()
	perRow := float64(sent) / float64(len(tuples))
	t.Logf("%d-row derived body: %d frame payload bytes, %.2f B/row", len(tuples), sent, perRow)
	if perRow > 25 {
		t.Fatalf("a full derived payload-free body costs %.2f B/row, want at most 25", perRow)
	}
	f, err := far.Recv()
	if err != nil || len(f.Payload) != int(sent) {
		t.Fatalf("received a %d-byte frame (%v), DataFrameBytes says %d", len(f.Payload), err, sent)
	}
	wcfg := cfg
	wcfg.hosted = []bool{true, true, true, true}
	wop := mustOperator(t, wcfg)
	if _, err := wop.fanOut(nil, f.Payload); err != nil {
		t.Fatal(err)
	}
	for id, port := range *wop.topo.ports.Load() {
		e := <-port.dataIn
		if len(e.tuples) != len(tuples) || e.win.Len()+e.rest.Len() != len(tuples) {
			t.Fatalf("joiner %d: %d tuples in windows of %d and %d rows, want %d", id, len(e.tuples), e.win.Len(), e.rest.Len(), len(tuples))
		}
		for i, got := range e.tuples {
			want := tuples[i]
			want.U = join.UMix(uint64(cfg.Seed), want.Seq)
			if !sameTuple(got, want) {
				t.Fatalf("joiner %d tuple %d: %+v, want %+v", id, i, got, want)
			}
		}
		e.release()
	}
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
	_, d, _, err := decodeData(nil, appendData(nil, []int{0}, e), 0)
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
	p := newRemotePeer("test", nil, nil, nil, func(error) {})
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
