package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/exact"
	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/storage"
)

// settledGoroutines returns the goroutine count once it has stopped
// changing, so tasks of an earlier test that are still unwinding do not
// skew a baseline.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for still := 0; still < 5; {
		time.Sleep(2 * time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		} else {
			still++
		}
	}
	return n
}

// waitGoroutines waits until the goroutine count is back at base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Finish, %d before Start", n, base)
		}
	}
}

// panicBackend is a backend whose every write panics, as the
// mid-snapshot crash point inside FileBackend.Write does.
type panicBackend struct{ storage.MemBackend }

func (*panicBackend) Write(uint64, []byte, []uint64) error { panic("injected write crash") }

// TestOperatorTaskGraph pins the operator's tasks: J joiners, one
// reshuffler per source ring and one control task, whatever the route,
// adaptive or static, with or without a backend. Finish leaves none of
// them behind, also when a backend write panics on the control task.
func TestOperatorTaskGraph(t *testing.T) {
	pred := join.EquiJoin("eq", nil)
	cases := []struct {
		name  string
		cfg   Config
		hash  bool
		crash bool // the checkpoint's backend write panics
	}{
		{name: "grid/static", cfg: Config{J: 4}},
		{name: "grid/adaptive", cfg: Config{J: 16, Adaptive: true}},
		{name: "grid/backend", cfg: Config{J: 4, Backend: storage.NewMemBackend()}},
		{name: "grid/adaptive-paced", cfg: Config{J: 8, Adaptive: true, Backend: storage.NewMemBackend(), CheckpointEvery: 100}},
		{name: "grid/backend-panics", cfg: Config{J: 4, Backend: &panicBackend{}}, crash: true},
		{name: "hash", cfg: Config{J: 5}, hash: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Pred, cfg.NumReshufflers, cfg.Seed = pred, 3, 7
			var got *[][2]uint64
			cfg.EmitBatch, got = keySink(ckptKey, 0)
			var op *Operator
			var err error
			if tc.hash {
				op, err = NewSHJ(cfg)
			} else {
				op, err = NewOperator(cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			base := settledGoroutines()
			op.Start()
			if got, want := runtime.NumGoroutine()-base, op.cfg.J+op.cfg.NumReshufflers+1; got != want {
				t.Fatalf("Start launched %d goroutines, want J + reshufflers + control = %d", got, want)
			}
			rng := rand.New(rand.NewSource(1))
			tuples := mixedStream(rng, 300, 300, 40)
			if err := op.SendBatch(tuples); err != nil {
				t.Fatal(err)
			}
			if cfg.Backend != nil {
				err := op.Checkpoint()
				if tc.crash != (err != nil) {
					t.Fatalf("Checkpoint = %v, crash %v", err, tc.crash)
				}
			}
			err = op.Finish()
			switch {
			case tc.crash:
				if err == nil || !strings.Contains(err.Error(), "injected write crash") {
					t.Fatalf("Finish = %v, want the write panic", err)
				}
			case err != nil:
				t.Fatal(err)
			default:
				exact.Equal(t, *got, stampedPairs(pred, tuples))
			}
			waitGoroutines(t, base)
		})
	}
}

// TestExpansionPastAckBuffer grows a grid 1 → 4 → 16 → 64 joiners
// through three elastic expansions. The ack channel is sized once, for
// 4·J₀+16 = 20 acks, and the last step needs 64, one per joiner, while
// one-envelope inboxes keep the reshuffler blocked on the joiners
// about to ack: the step must still drain, exactly, without a hang.
func TestExpansionPastAckBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pred := join.EquiJoin("eq", nil)
	tuples := mixedStream(rng, 5000, 5000, 200)
	want := stampedPairs(pred, tuples)
	emit, got := keySink(ckptKey, 0)
	op := mustOperator(t, Config{
		J: 1, Pred: pred, Adaptive: true, Seed: 5,
		Warmup:             100,
		MaxTuplesPerJoiner: 400,
		MaxJoiners:         64,
		DataQueueCap:       1,
		EmitBatch:          emit,
	})
	done := make(chan error, 1)
	go func() {
		done <- func() error {
			op.Start()
			// Alg. 2 checks when a side's count doubles; each check past
			// M/2 tuples per joiner expands. Feed until the next expansion
			// is issued and wait for its last ack before feeding on, so
			// the stream cannot end while one drains. The wait is bounded:
			// the controller decides on tuples the rings still held, so an
			// expansion may be issued, and drain, while the previous stage
			// waited.
			i := 0
			for _, target := range []int{4, 16, 64} {
				drained := op.Metrics().MigrationNanos.Load()
				for op.NumJoiners() < target {
					if i == len(tuples) {
						return fmt.Errorf("J = %d after the whole stream, want %d", op.NumJoiners(), target)
					}
					if err := op.Send(tuples[i]); err != nil {
						return err
					}
					i++
				}
				for deadline := time.Now().Add(time.Second); op.Metrics().MigrationNanos.Load() == drained && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
			}
			for ; i < len(tuples); i++ {
				if err := op.Send(tuples[i]); err != nil {
					return err
				}
			}
			return op.Finish()
		}()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("hung at J = %d after %d expansions", op.NumJoiners(), op.Metrics().Expansions.Load())
	}
	exact.Equal(t, *got, want)
	if e := op.Metrics().Expansions.Load(); e != 3 || op.NumJoiners() != 64 {
		t.Fatalf("%d expansions to J = %d, want 3 to 64", e, op.NumJoiners())
	}
	checkMigrationConserved(t, op.Metrics())
}

// TestCheckpointFollowsDecisions holds a manual checkpoint of an
// adaptive operator to the decisions its input fires. The R-only burst
// sent before the request moves the (4,4) grid toward (16,1), so the
// checkpoint must record the grid after the first step, although burst
// and request are both queued before Start and the control task can
// take the request before any reshuffler has ingested the burst.
func TestCheckpointFollowsDecisions(t *testing.T) {
	tuples := make([]join.Tuple, 2000)
	for i := range tuples {
		tuples[i] = join.Tuple{Rel: matrix.SideR, Key: int64(i), Size: 8}
	}
	for _, numRe := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("reshufflers=%d", numRe), func(t *testing.T) {
			be := storage.NewMemBackend()
			op := mustOperator(t, Config{
				J: 16, Pred: join.EquiJoin("eq", nil), Adaptive: true, NumReshufflers: numRe, Seed: 3,
				Initial: matrix.Mapping{N: 4, M: 4}, Backend: be,
			})
			if err := op.SendBatch(tuples); err != nil {
				t.Fatal(err)
			}
			ckpt := make(chan error, 1)
			go func() { ckpt <- op.Checkpoint() }()
			for len(op.ctl.ckptReqCh) == 0 {
				time.Sleep(time.Millisecond)
			}
			op.Start()
			if err := <-ckpt; err != nil {
				t.Fatal(err)
			}
			if m := latestSnapshot(t, be).Mapping; m == (matrix.Mapping{N: 4, M: 4}) {
				t.Fatalf("the checkpoint records %v, from before the burst's first migration step", m)
			}
			if err := op.Finish(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
