package squall_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// pairMultiset is a Batches sink folding pairs into an (R.Aux, S.Aux)
// multiset, safe for the concurrent calls of several joiners; seen
// counts the pairs delivered so far.
type pairMultiset struct {
	mu   sync.Mutex
	got  map[[2]int64]int
	seen atomic.Int64
}

func (m *pairMultiset) sink() squall.Sink {
	m.got = map[[2]int64]int{}
	return squall.Batches(func(ps []squall.Pair) {
		m.mu.Lock()
		for _, p := range ps {
			m.got[[2]int64{p.R.Aux, p.S.Aux}]++
		}
		m.mu.Unlock()
		m.seen.Add(int64(len(ps)))
	})
}

func (m *pairMultiset) check(t *testing.T, want map[[2]int64]int) {
	t.Helper()
	if len(m.got) != len(want) {
		t.Fatalf("%d distinct pairs, nested loop %d", len(m.got), len(want))
	}
	for k, n := range want {
		if m.got[k] != n {
			t.Fatalf("pair %v emitted %d times, nested loop %d", k, m.got[k], n)
		}
	}
}

// TestWithPadDummiesExact drives WithPadDummies on a stream whose
// S:R ratio exceeds J: the reshufflers inject dummy R tuples (Seq 0,
// the dummy bit set) that are routed, and stored in the slots' shared
// blocks, like real ones but never match. The output must be the
// nested-loop multiset exactly, and dummies must have been injected.
func TestWithPadDummiesExact(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		tuples := emitStream(6, 4000, 12, 31)
		var m pairMultiset
		opts := []squall.Option{squall.WithJoiners(4), squall.WithSeed(3), squall.WithPadDummies()}
		if adaptive {
			opts = append(opts, squall.WithAdaptive(), squall.WithWarmup(500))
		}
		op := squall.NewEngine(squall.Equi("pad"), m.sink(), opts...).(*squall.Operator)
		op.Start()
		if err := op.SendBatch(tuples); err != nil {
			t.Fatal(err)
		}
		if err := op.Finish(); err != nil {
			t.Fatal(err)
		}
		m.check(t, emitOracle(tuples))
		if op.Metrics().DummyTuples.Load() == 0 {
			t.Fatalf("adaptive=%v: no dummy tuple injected at an S:R ratio of %d", adaptive, 4000/6)
		}
	}
}

// TestWithBatchLingerTrickleExact drives WithBatchLinger(50µs) with an
// envelope far larger than the stream: a trickled feed never fills an
// envelope, so every pair that arrives before Finish was shipped by a
// linger (or idle) flush, which publishes a short window of the slot's
// shared block. The output must be the nested-loop multiset exactly.
func TestWithBatchLingerTrickleExact(t *testing.T) {
	tuples := emitStream(150, 150, 20, 37)
	rand.New(rand.NewSource(37)).Shuffle(len(tuples), func(i, j int) { tuples[i], tuples[j] = tuples[j], tuples[i] })
	var m pairMultiset
	op := squall.NewEngine(squall.Equi("linger"), m.sink(), squall.WithJoiners(16), squall.WithSeed(5),
		squall.WithBatchSize(1<<14), squall.WithBatchLinger(50*time.Microsecond)).(*squall.Operator)
	op.Start()
	for i := range tuples {
		if err := op.Send(tuples[i]); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for m.seen.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	early := m.seen.Load()
	if err := op.Finish(); err != nil {
		t.Fatal(err)
	}
	m.check(t, emitOracle(tuples))
	if early == 0 {
		t.Fatal("no pair arrived before Finish: partial envelopes never flushed")
	}
	met := op.Metrics()
	t.Logf("%d of %d pairs before Finish; flushes: %d linger, %d idle, %d full",
		early, m.seen.Load(), met.BatchFlushLinger.Load(), met.BatchFlushIdle.Load(), met.BatchFlushFull.Load())
}
