package squall_test

import (
	"math/rand"
	"sync/atomic"
	"testing"

	squall "repro"
)

// The facade quickstart must work verbatim.
func TestFacadeQuickstart(t *testing.T) {
	var n atomic.Int64
	op := squall.NewEngine(squall.EquiJoin("orders", nil), squall.Each(func(squall.Pair) { n.Add(1) }),
		squall.WithJoiners(16), squall.WithAdaptive()).(*squall.Operator)
	op.Start()
	op.Send(squall.Tuple{Rel: squall.SideR, Key: 42})
	op.Send(squall.Tuple{Rel: squall.SideS, Key: 42})
	op.Send(squall.Tuple{Rel: squall.SideS, Key: 7})
	if err := op.Finish(); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 1 {
		t.Fatalf("emitted %d, want 1", n.Load())
	}
}

// The batched message plane must be invisible at the public API:
// batch size 1 (the degenerate per-message plane) and batch size > 1
// produce identical join results through NewEngine/Send/Finish,
// including while an adaptive migration is relocating state.
func TestFacadeBatchSizesIdenticalResults(t *testing.T) {
	run := func(batchSize int, adaptive bool) (int64, *squall.Operator) {
		var n atomic.Int64
		opts := []squall.Option{squall.WithJoiners(8), squall.WithWarmup(400), squall.WithSeed(99), squall.WithBatchSize(batchSize)}
		if adaptive {
			opts = append(opts, squall.WithAdaptive())
		}
		op := squall.NewEngine(squall.EquiJoin("orders", nil), squall.Each(func(squall.Pair) { n.Add(1) }), opts...).(*squall.Operator)
		op.Start()
		rng := rand.New(rand.NewSource(6))
		// Lopsided stream so the adaptive runs migrate mid-stream.
		for i := 0; i < 150; i++ {
			op.Send(squall.Tuple{Rel: squall.SideR, Key: rng.Int63n(40), Size: 8})
		}
		for i := 0; i < 6000; i++ {
			op.Send(squall.Tuple{Rel: squall.SideS, Key: rng.Int63n(40), Size: 8})
		}
		if err := op.Finish(); err != nil {
			t.Fatal(err)
		}
		return n.Load(), op
	}
	for _, adaptive := range []bool{false, true} {
		unbatched, _ := run(1, adaptive)
		batched, op := run(16, adaptive)
		if unbatched != batched {
			t.Fatalf("adaptive=%v: BatchSize 1 emitted %d, BatchSize 16 emitted %d", adaptive, unbatched, batched)
		}
		if adaptive && op.Migrations() == 0 {
			t.Fatal("expected migrations in the adaptive run")
		}
		if op.Metrics().MeanBatchSize() <= 1 {
			t.Fatalf("adaptive=%v: mean batch size %.2f, want > 1", adaptive, op.Metrics().MeanBatchSize())
		}
	}
}

func TestFacadeMappingHelpers(t *testing.T) {
	if squall.SquareMapping(64) != (squall.Mapping{N: 8, M: 8}) {
		t.Fatal("SquareMapping")
	}
	if squall.OptimalMapping(64, 1, 1000) != (squall.Mapping{N: 1, M: 64}) {
		t.Fatal("OptimalMapping")
	}
}

func TestFacadeSim(t *testing.T) {
	sim := squall.NewSim(squall.SimConfig{J: 16, Adaptive: true, MatchWidth: -1})
	for i := 0; i < 10000; i++ {
		sim.Process(squall.SideS, 0)
	}
	res := sim.Finish()
	if res.Final != (squall.Mapping{N: 1, M: 16}) {
		t.Fatalf("sim final %v", res.Final)
	}
}

func TestFacadeSHJ(t *testing.T) {
	var n atomic.Int64
	shj, err := squall.NewSHJ(squall.EquiJoin("eq", nil), squall.Each(func(squall.Pair) { n.Add(1) }),
		squall.WithJoiners(4))
	if err != nil {
		t.Fatal(err)
	}
	shj.Start()
	shj.Send(squall.Tuple{Rel: squall.SideR, Key: 1})
	shj.Send(squall.Tuple{Rel: squall.SideS, Key: 1})
	if err := shj.Finish(); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 1 {
		t.Fatalf("emitted %d", n.Load())
	}
}

// TestFacadeGrouped: a non-power-of-two joiner count (5) builds the
// grid Operator on the largest power of two below it.
func TestFacadeGrouped(t *testing.T) {
	var n atomic.Int64
	op := squall.NewEngine(squall.BandJoin("band", 1, nil), squall.Each(func(squall.Pair) { n.Add(1) }),
		squall.WithJoiners(5)).(*squall.Operator)
	if j := op.NumJoiners(); j != 4 {
		t.Fatalf("WithJoiners(5) runs %d joiners, want 4", j)
	}
	op.Start()
	op.Send(squall.Tuple{Rel: squall.SideR, Key: 10})
	op.Send(squall.Tuple{Rel: squall.SideS, Key: 11})
	op.Send(squall.Tuple{Rel: squall.SideS, Key: 20})
	if err := op.Finish(); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 1 {
		t.Fatalf("emitted %d", n.Load())
	}
}
