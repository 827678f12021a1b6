package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/transport"
)

// serveWorkers starts n in-process workers behind loopback TCP
// listeners and returns their addresses and a wait that fails the test
// unless every worker session ended cleanly.
func serveWorkers(t *testing.T, n int) (addrs []string, wait func()) {
	t.Helper()
	served := make(chan error, n)
	for i := 0; i < n; i++ {
		lis, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = lis.Close() })
		addrs = append(addrs, lis.Addr())
		go func() { served <- ServeWorker(context.Background(), lis, WorkerConfig{}) }()
	}
	return addrs, func() {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := <-served; err != nil {
				t.Fatalf("worker session: %v", err)
			}
		}
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
	want := refMultiset(pred, tuples, contentOf)
	got, op := runOperatorContent(t, Config{
		J: 8, Pred: pred, Seed: 99, Adaptive: true, Warmup: 400,
		NumReshufflers: 3, Workers: addrs,
	}, tuples)
	diffMultisets(t, got, want)
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
	want := refMultiset(pred, tuples, contentOf)
	got, op := runOperatorContent(t, Config{
		J: 8, Pred: pred, Seed: 5, Adaptive: true, Warmup: 400,
		Workers: addrs, Placement: []int{-1, 0, 1, 0, -1, 1, 1, -1},
	}, tuples)
	diffMultisets(t, got, want)
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
