package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/exact"
	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/transport"
)

// serveWorkers starts n in-process workers behind loopback TCP
// listeners and returns their addresses and a wait that fails the test
// unless every worker session ended cleanly. wait returns the workers'
// operators, in address order, for inspection after the sessions.
func serveWorkers(t *testing.T, n int) (addrs []string, wait func() []*Operator) {
	t.Helper()
	served := make(chan error, n)
	ops := make([]*Operator, n)
	for i := 0; i < n; i++ {
		lis, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = lis.Close() })
		addrs = append(addrs, lis.Addr())
		go func() {
			served <- serveWorker(context.Background(), lis, WorkerConfig{}, func(op *Operator) { ops[i] = op })
		}()
	}
	return addrs, func() []*Operator {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := <-served; err != nil {
				t.Fatalf("worker session: %v", err)
			}
		}
		return ops
	}
}

// lopsidedStream is 300 R tuples followed by 6000 S tuples over 40 keys:
// an adaptive operator starting square migrates toward a wide grid.
func lopsidedStream(rng *rand.Rand) []join.Tuple {
	var tuples []join.Tuple
	for i := 0; i < 6300; i++ {
		side := matrix.SideS
		if i < 300 {
			side = matrix.SideR
		}
		tuples = append(tuples, join.Tuple{Rel: side, Key: rng.Int63n(40), Size: 8})
	}
	withContent(rng, tuples)
	return tuples
}

// TestWorkerTakesReshufflersFromHello runs a coordinator with J=8
// joiners on two in-process workers behind loopback TCP listeners and
// pins its reshuffler count to 3, which a worker's own default
// min(J, GOMAXPROCS) matches only on a three-core host: a worker must
// take the count from the hello to align its joiners' epoch signals and
// EOS with the coordinator's rings. A lopsided adaptive stream migrates
// state across the links, and the pairs must match the nested-loop
// oracle by content.
func TestWorkerTakesReshufflersFromHello(t *testing.T) {
	addrs, wait := serveWorkers(t, 2)
	pred := join.EquiJoin("dist", nil)
	rng := rand.New(rand.NewSource(7))
	tuples := lopsidedStream(rng)
	want := wantPairs(pred, tuples, contentOf)
	op := runContentExact(t, Config{
		J: 8, Pred: pred, Seed: 99, Adaptive: true, Warmup: 400,
		NumReshufflers: 3, Workers: addrs,
	}, tuples, want)
	if op.Migrations() == 0 {
		t.Fatal("no migrations: the drill must relocate state across the links")
	}
	wait()
}

// TestMixedPlacementExact keeps three of J=8 joiners in the coordinator
// and interleaves the rest over two loopback TCP workers, so a row or
// column flush reaches local joiners by pointer and each worker it spans
// by one frame naming several joiners. A lopsided adaptive stream
// migrates, which changes the rows and columns — and so the workers
// each one spans — mid-stream; the pairs must match the nested-loop
// oracle by content.
func TestMixedPlacementExact(t *testing.T) {
	addrs, wait := serveWorkers(t, 2)
	pred := join.EquiJoin("mixed", nil)
	rng := rand.New(rand.NewSource(11))
	tuples := lopsidedStream(rng)
	want := wantPairs(pred, tuples, contentOf)
	op := runContentExact(t, Config{
		J: 8, Pred: pred, Seed: 5, Adaptive: true, Warmup: 400,
		Workers: addrs, Placement: []int{-1, 0, 1, 0, -1, 1, 1, -1},
	}, tuples, want)
	if op.Migrations() == 0 {
		t.Fatal("no migrations: the drill must regroup rows and columns across the links")
	}
	wait()
}

// TestWorkerRejectsHostileHello: a hello whose sizes a worker would
// allocate before running anything — 2^40 joiner ports, 2^30 source
// rings, a 2^40-tuple inbox — ends the session with a *LinkError
// instead of running the worker out of memory.
func TestWorkerRejectsHostileHello(t *testing.T) {
	for _, h := range []helloMsg{
		{J: 1 << 40, NumRe: 1, Ids: []int{0}},
		{J: 8, NumRe: 1 << 30, Ids: []int{0}},
		{J: 8, NumRe: 1, Ids: []int{0}, DataQueueCap: 1 << 40},
	} {
		lis, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = lis.Close() })
		served := make(chan error, 1)
		go func() { served <- ServeWorker(context.Background(), lis, WorkerConfig{}) }()
		link, err := transport.Dial(lis.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = link.Close() })
		if err := link.Send(transport.Frame{Kind: transport.KindHello, Payload: encodeHello(h)}); err != nil {
			t.Fatal(err)
		}
		err = <-served
		var le *LinkError
		if !errors.As(err, &le) {
			t.Fatalf("hello %+v: ServeWorker returned %v, want a *LinkError", h, err)
		}
	}
}

// TestWorkerRejectsMalformedFrames: a data frame that names one hosted
// joiner twice, or whose body mixes R and S tuples, would give wrong
// pairs — the joiner would store and probe the body twice, or store
// its S tuples in the R index — and a body past a block cannot be
// written as one window of its line, which a block-sharing job's
// reshufflers never send; so the receive loop rejects all three with
// ErrBadEnvelope and hands nothing to any joiner; the well-formed
// frame beside them goes through.
func TestWorkerRejectsMalformedFrames(t *testing.T) {
	cfg := Config{J: 4, Pred: join.EquiJoin("eq", nil), Initial: matrix.Mapping{N: 2, M: 2}, NumReshufflers: 1}
	cfg.hosted = []bool{true, true, true, true}
	wop := mustOperator(t, cfg)
	ports := *wop.topo.ports.Load()
	r := join.Tuple{Rel: matrix.SideR, Key: 1, Seq: 1, U: 1}
	s := join.Tuple{Rel: matrix.SideS, Key: 1, Seq: 2, U: 1}
	long := make([]join.Tuple, join.WindowRows+1)
	for i := range long {
		long[i] = r
	}
	for _, tc := range []struct {
		name  string
		dests []int
		body  []join.Tuple
	}{
		{"one joiner twice", []int{0, 1, 0}, []join.Tuple{r}},
		{"R and S in one body", []int{0, 1}, []join.Tuple{r, s}},
		{"body past a block", []int{0, 1}, long},
	} {
		frame := appendData(nil, tc.dests, &envelope{hdr: message{kind: kTuple}, tuples: tc.body})
		if _, err := wop.fanOut(nil, frame); !errors.Is(err, ErrBadEnvelope) {
			t.Fatalf("%s: fanOut returned %v, want ErrBadEnvelope", tc.name, err)
		}
		for id, p := range ports {
			if n := len(p.dataIn); n != 0 {
				t.Fatalf("%s: joiner %d got %d envelopes, want none", tc.name, id, n)
			}
		}
	}
	frame := appendData(nil, []int{0, 1}, &envelope{hdr: message{kind: kTuple}, tuples: []join.Tuple{r, r}})
	if _, err := wop.fanOut(nil, frame); err != nil {
		t.Fatalf("well-formed frame: %v", err)
	}
	for _, id := range []int{0, 1} {
		if n := len(ports[id].dataIn); n != 1 {
			t.Fatalf("joiner %d got %d envelopes of the well-formed frame, want 1", id, n)
		}
		(<-ports[id].dataIn).release()
	}
}

// TestLinkRecycledPayloadsDoNotAlias: a received data or pairs payload
// goes back to the link's free list once decoded, and the next frame
// of any link in the process may be read into it. Nothing decoded from
// it may alias it, and no frame still queued may be recycled: a
// migration frame the coordinator relays from one worker to the other
// waits in the out-queue. An adaptive J=8 stream with a distinct
// payload per tuple crosses two loopback-TCP workers that host
// alternate joiners, so buffers turn over thousands of times while
// state moves worker to worker through the coordinator. The sink keeps
// every pair's payload slices as given; after Finish each must still
// hold its tuple's bytes, and the pairs must match the nested-loop
// oracle. A recycle that comes too early corrupts a frame only when
// another receive loop takes the buffer in time, so the drill runs
// three times.
func TestLinkRecycledPayloadsDoNotAlias(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { recycledPayloadsDrill(t, seed) })
	}
}

func recycledPayloadsDrill(t *testing.T, seed int64) {
	addrs, wait := serveWorkers(t, 2)
	pred := join.EquiJoin("recycle", nil)
	rng := rand.New(rand.NewSource(seed))
	tuples := make([]join.Tuple, 16000)
	payloads := make([][]byte, len(tuples))
	for i := range tuples {
		side := matrix.SideS
		if i < 800 {
			side = matrix.SideR
		}
		payloads[i] = make([]byte, 8+rng.Intn(25))
		binary.LittleEndian.PutUint64(payloads[i], uint64(i))
		rng.Read(payloads[i][8:])
		tuples[i] = join.Tuple{Rel: side, Key: rng.Int63n(200), Aux: int64(i), Size: 8,
			Payload: append([]byte(nil), payloads[i]...)}
	}
	type kept struct {
		r, s       int64
		rPay, sPay []byte
	}
	var (
		mu   sync.Mutex
		got  []kept
		want = wantPairs(pred, tuples, auxKey)
	)
	op := mustOperator(t, Config{
		J: 8, Pred: pred, Seed: seed, Adaptive: true, Warmup: 400,
		Workers: addrs, Placement: []int{0, 1, 0, 1, 1, 0, 1, 0},
		EmitBatch: func(ps []join.Pair) {
			mu.Lock()
			for _, p := range ps {
				got = append(got, kept{p.R.Aux, p.S.Aux, p.R.Payload, p.S.Payload})
			}
			mu.Unlock()
		},
	})
	op.Start()
	for i := 0; i < len(tuples); i += 64 {
		if err := op.SendBatch(tuples[i:min(i+64, len(tuples))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := op.Finish(); err != nil {
		t.Fatal(err)
	}
	wait()
	if op.Migrations() == 0 {
		t.Fatal("no migrations: the drill must move state between the workers")
	}
	intact := func(aux int64, pay []byte) bool {
		return aux >= 0 && aux < int64(len(payloads)) && bytes.Equal(pay, payloads[aux])
	}
	keys := make([][2]uint64, len(got))
	for i, k := range got {
		if !intact(k.r, k.rPay) || !intact(k.s, k.sPay) {
			t.Fatalf("pair (%d, %d): payloads read %x and %x after Finish", k.r, k.s, k.rPay, k.sPay)
		}
		keys[i] = [2]uint64{uint64(k.r), uint64(k.s)}
	}
	exact.Equal(t, keys, want)
}
