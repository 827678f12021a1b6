package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/join"
	"repro/internal/matrix"
)

// Cancelling the operator's context must stop every task, unblock
// senders, and surface context.Canceled from Send and Finish.
func TestOperatorContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	op := mustOperator(t, Config{
		J: 8, Pred: join.EquiJoin("ctx", nil), Adaptive: true, Warmup: 100, Seed: 3,
	})
	op.StartContext(ctx)

	rng := rand.New(rand.NewSource(9))
	var sendErr error
	fed := make(chan int, 1)
	go func() {
		n := 0
		for {
			side := matrix.SideR
			if n%2 == 1 {
				side = matrix.SideS
			}
			if sendErr = op.Send(join.Tuple{Rel: side, Key: rng.Int63n(64), Size: 8}); sendErr != nil {
				break
			}
			n++
		}
		fed <- n
	}()

	time.Sleep(20 * time.Millisecond)
	cancel()

	select {
	case <-fed:
	case <-time.After(5 * time.Second):
		t.Fatal("sender did not unblock after cancellation")
	}
	if !errors.Is(sendErr, context.Canceled) {
		t.Fatalf("Send after cancel = %v, want context.Canceled", sendErr)
	}

	done := make(chan error, 1)
	go func() { done <- op.Finish() }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Finish = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Finish did not return after cancellation")
	}

	// Post-cancel sends keep failing rather than blocking.
	if err := op.Send(join.Tuple{Rel: matrix.SideR, Key: 1}); err == nil {
		t.Fatal("Send after Finish+cancel returned nil")
	}
}

// A joiner task panic (here: a panicking theta predicate) must cancel
// the topology and surface as a Finish error instead of deadlocking
// the drain protocol.
func TestOperatorTaskPanicSurfaces(t *testing.T) {
	op := mustOperator(t, Config{
		J: 4,
		Pred: join.ThetaJoin("boom", func(r, s join.Tuple) bool {
			panic("predicate exploded")
		}),
		Seed: 1,
	})
	op.Start()
	// Two matching-side tuples force a probe, which panics in a joiner.
	op.Send(join.Tuple{Rel: matrix.SideR, Key: 1})
	op.Send(join.Tuple{Rel: matrix.SideS, Key: 1})

	done := make(chan error, 1)
	go func() { done <- op.Finish() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Finish = nil, want the task panic as an error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Finish deadlocked after joiner panic")
	}
}

// Cancelling a grouped operator propagates to every group.
func TestGroupedContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	gr := mustGrouped(t, Config{J: 5, Pred: join.EquiJoin("ctx", nil), Seed: 2})
	gr.StartContext(ctx)
	cancel()

	deadline := time.Now().Add(5 * time.Second)
	var err error
	for time.Now().Before(deadline) {
		if err = gr.Send(join.Tuple{Rel: matrix.SideR, Key: 1}); err != nil {
			break
		}
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Send = %v, want context.Canceled", err)
	}
	if err := gr.Finish(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Finish = %v, want context.Canceled", err)
	}
}
