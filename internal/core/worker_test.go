package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/transport"
)

// TestWorkerTakesReshufflersFromHello runs a coordinator with J=8
// joiners on two in-process workers behind loopback TCP listeners and
// pins its reshuffler count to 3, which a worker's own default
// min(J, GOMAXPROCS) matches only on a three-core host: a worker must
// take the count from the hello to align its joiners' epoch signals and
// EOS with the coordinator's rings. A lopsided adaptive stream migrates
// state across the links, and the pairs must match the nested-loop
// oracle by content.
func TestWorkerTakesReshufflersFromHello(t *testing.T) {
	served := make(chan error, 2)
	var addrs []string
	for i := 0; i < 2; i++ {
		lis, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = lis.Close() })
		addrs = append(addrs, lis.Addr())
		go func() { served <- ServeWorker(context.Background(), lis, WorkerConfig{}) }()
	}

	pred := join.EquiJoin("dist", nil)
	rng := rand.New(rand.NewSource(7))
	var tuples []join.Tuple
	for i := 0; i < 6300; i++ {
		side := matrix.SideS
		if i < 300 {
			side = matrix.SideR
		}
		tuples = append(tuples, join.Tuple{Rel: side, Key: rng.Int63n(40), Size: 8})
	}
	withContent(rng, tuples)
	want := refMultiset(pred, tuples, contentOf)
	got, op := runOperatorContent(t, Config{
		J: 8, Pred: pred, Seed: 99, Adaptive: true, Warmup: 400,
		NumReshufflers: 3, Workers: addrs,
	}, tuples)
	diffMultisets(t, got, want)
	if op.Migrations() == 0 {
		t.Fatal("no migrations: the drill must relocate state across the links")
	}
	for range addrs {
		if err := <-served; err != nil {
			t.Fatalf("worker session: %v", err)
		}
	}
}
