package squall_test

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	squall "repro"
)

// TestInvalidOptionsReturnErrors pins the construction surface's
// contract: every option combination an engine rejects is an error
// from Run, NewSHJ or Restore, reported before any task starts. The
// stage stays not running, so Send still returns ErrNotRunning, and no
// goroutine is left behind. NewEngine, which has no error return,
// panics with the same error.
func TestInvalidOptionsReturnErrors(t *testing.T) {
	eq := squall.Equi("x")
	always := func(r, s squall.Tuple) bool { return true }
	const addr = "127.0.0.1:1" // never dialed: validation fails first
	workers := func(opts ...squall.Option) []squall.Option {
		return append([]squall.Option{squall.WithJoiners(8), squall.WithWorkers(addr)}, opts...)
	}
	for _, tc := range []struct {
		name string
		pred squall.Predicate
		opts []squall.Option
	}{
		{"J=0", eq, []squall.Option{squall.WithJoiners(0)}},
		{"initial-mapping", eq, []squall.Option{squall.WithJoiners(16), squall.WithInitialMapping(squall.Mapping{N: 2, M: 4})}},
		{"workers/backend", eq, workers(squall.WithBackend(squall.NewMemBackend()))},
		{"workers/elastic", eq, workers(squall.WithElastic(100, 0))},
		{"workers/theta", squall.Theta("x", always), workers()},
		{"workers/residual", squall.EquiJoin("x", always), workers()},
		{"workers/placement-length", eq, workers(squall.WithPlacement(0, 0))},
		{"workers/placement-range", eq, workers(squall.WithPlacement(0, 0, 0, 0, 0, 0, 0, 5))},
		{"workers/batch-size", eq, workers(squall.WithBatchSize(1 << 20))},
		{"workers/joiners", eq, []squall.Option{squall.WithJoiners(1 << 12), squall.WithWorkers(addr)}},
		{"checkpoint-every/no-backend", eq, []squall.Option{squall.WithCheckpointEvery(1000)}},
		{"checkpoint-every/negative", eq, []squall.Option{squall.WithBackend(squall.NewMemBackend()), squall.WithCheckpointEvery(-1)}},
		// grouped/: a non-power-of-two J is checked like any other.
		{"grouped/checkpoint-every", eq, []squall.Option{squall.WithJoiners(6), squall.WithCheckpointEvery(1000)}},
		{"epsilon/above-one", eq, []squall.Option{squall.WithAdaptive(), squall.WithEpsilon(2)}},
		{"epsilon/negative", eq, []squall.Option{squall.WithEpsilon(-0.5)}},
		{"epsilon/nan", eq, []squall.Option{squall.WithAdaptive(), squall.WithEpsilon(math.NaN())}},
		{"grouped/epsilon", eq, []squall.Option{squall.WithJoiners(6), squall.WithEpsilon(2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			p := squall.NewPipeline()
			s := p.Join(tc.pred, tc.opts...)
			runErr := p.Run(context.Background())
			if runErr == nil {
				t.Fatal("Run accepted the options")
			}
			if err := s.Send(squall.Tuple{Rel: squall.SideR, Key: 1}); !errors.Is(err, squall.ErrNotRunning) {
				t.Fatalf("Send after a failed Run = %v, want ErrNotRunning", err)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("a failed Run left %d goroutines, %d before", n, before)
			}
			func() {
				defer func() {
					err, ok := recover().(error)
					if !ok || !strings.Contains(runErr.Error(), err.Error()) {
						t.Fatalf("NewEngine panicked with %v, want the error Run returned (%v)", err, runErr)
					}
				}()
				squall.NewEngine(tc.pred, nil, tc.opts...)
			}()
		})
	}

	// Stages build children first: an invalid parent must not leave its
	// already built child reachable.
	t.Run("chained", func(t *testing.T) {
		p := squall.NewPipeline()
		rs := p.Join(eq, squall.WithJoiners(0))
		rst := rs.Join(eq, func(pr squall.Pair) squall.Tuple { return pr.R })
		if err := p.Run(context.Background()); err == nil {
			t.Fatal("Run accepted an invalid parent stage")
		}
		for _, s := range []*squall.Stream{rs, rst} {
			if err := s.Send(squall.Tuple{Rel: squall.SideS, Key: 1}); !errors.Is(err, squall.ErrNotRunning) {
				t.Fatalf("Send after a failed Run = %v, want ErrNotRunning", err)
			}
		}
	})

	for _, tc := range []struct {
		name string
		pred squall.Predicate
		opts []squall.Option
	}{
		{"shj/band", squall.Band("x", 1), nil},
		{"shj/J=0", eq, []squall.Option{squall.WithJoiners(0)}},
		{"shj/backend", eq, []squall.Option{squall.WithBackend(squall.NewMemBackend())}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			if _, err := squall.NewSHJ(tc.pred, nil, tc.opts...); err == nil {
				t.Fatal("NewSHJ accepted the options")
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("a failed NewSHJ left %d goroutines, %d before", n, before)
			}
		})
	}

	t.Run("restore/workers", func(t *testing.T) {
		backend := squall.NewMemBackend()
		op := squall.NewEngine(eq, nil, squall.WithJoiners(4), squall.WithBackend(backend)).(*squall.Operator)
		op.Start()
		if err := op.Send(squall.Tuple{Rel: squall.SideR, Key: 1}); err != nil {
			t.Fatal(err)
		}
		if err := op.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := op.Finish(); err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		_, _, err := squall.Restore(backend, eq, nil, squall.WithWorkers(addr))
		if err == nil || errors.Is(err, squall.ErrNoCheckpoint) {
			t.Fatalf("Restore with WithWorkers = %v, want a configuration error", err)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("a failed Restore left %d goroutines, %d before", n, before)
		}
	})
}
