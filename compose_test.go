package squall_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	squall "repro"
	"repro/internal/exact"
)

// TestNonPowerOfTwoJoinersCompose: a grid stage built with a joiner
// count that is not a power of two runs one grid on the largest power
// of two below it, and every option composes with it. For each count
// the stage runs that many joiners and emits exactly the nested-loop
// oracle's pairs (by Aux identity) while it (a) adapts to a
// fluctuating stream that migrates, (b) checkpoints, crashes, restores
// and replays, (c) places its joiners on two worker servers, (d)
// expands elastically, and (e) ships every tuple alone.
func TestNonPowerOfTwoJoinersCompose(t *testing.T) {
	for _, j := range []int{3, 5, 6, 12} {
		grid := 1
		for grid*2 <= j {
			grid *= 2
		}
		c := composeCase{j: j, grid: grid}
		t.Run(fmt.Sprintf("J=%d/adaptive", j), func(t *testing.T) {
			ts := fluctuatingStream(int64(j))
			e, got := c.run(t, ts, squall.WithAdaptive(), squall.WithWarmup(400))
			exact.Equal(t, got, emitOracle(ts))
			if e.Metrics().Migrations.Load() == 0 {
				t.Fatal("no migrations: the stream must exercise the migration plane")
			}
		})
		t.Run(fmt.Sprintf("J=%d/checkpoint-restore", j), c.checkpointRestore)
		t.Run(fmt.Sprintf("J=%d/workers", j), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			var addrs []string
			served := make(chan error, 2)
			for i := 0; i < 2; i++ {
				ws, err := squall.NewWorkerServer("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer ws.Close()
				addrs = append(addrs, ws.Addr())
				go func() { served <- ws.Serve(ctx) }()
			}
			ts := fluctuatingStream(int64(j) + 100)
			_, got := c.run(t, ts, squall.WithAdaptive(), squall.WithWarmup(400), squall.WithWorkers(addrs...))
			for i := 0; i < 2; i++ {
				if err := <-served; err != nil {
					t.Fatalf("worker session: %v", err)
				}
			}
			exact.Equal(t, got, emitOracle(ts))
		})
		t.Run(fmt.Sprintf("J=%d/elastic", j), func(t *testing.T) {
			ts := emitStream(300, 4000, 40, int64(j)+200)
			log := newPairLog()
			e := c.build(t, log.sink(), squall.WithAdaptive(), squall.WithWarmup(300), squall.WithElastic(400, 4*grid))
			e.Start()
			// The controller drops a pending expansion once the input has
			// drained: feed a prefix past the check that splits, wait for
			// the expansion, then feed the rest on the expanded grid.
			sendAll(t, e, ts[:2800])
			for deadline := time.Now().Add(30 * time.Second); e.Metrics().Expansions.Load() == 0; {
				if time.Now().After(deadline) {
					t.Fatal("the elastic expansion was never issued")
				}
				time.Sleep(time.Millisecond)
			}
			sendAll(t, e, ts[2800:])
			if err := e.Finish(); err != nil {
				t.Fatal(err)
			}
			if n := e.Metrics().NumJoiners(); n != 4*grid {
				t.Fatalf("after the expansion %d joiners run, want %d", n, 4*grid)
			}
			exact.Equal(t, log.pairs(), emitOracle(ts))
		})
		t.Run(fmt.Sprintf("J=%d/batch=1", j), func(t *testing.T) {
			ts := fluctuatingStream(int64(j) + 300)
			_, got := c.run(t, ts, squall.WithAdaptive(), squall.WithWarmup(400), squall.WithBatchSize(1))
			exact.Equal(t, got, emitOracle(ts))
		})
	}
}

// composeCase is one requested joiner count j and the grid size it
// runs.
type composeCase struct{ j, grid int }

// build constructs the equi-join engine for c.j joiners with opts and
// checks that it runs c.grid of them.
func (c composeCase) build(t *testing.T, sink squall.Sink, opts ...squall.Option) squall.Engine {
	t.Helper()
	opts = append([]squall.Option{squall.WithJoiners(c.j), squall.WithSeed(int64(c.j))}, opts...)
	e := squall.NewEngine(squall.Equi("compose"), sink, opts...)
	if n := e.Metrics().NumJoiners(); n != c.grid {
		t.Fatalf("WithJoiners(%d) built %d joiners, want %d", c.j, n, c.grid)
	}
	return e
}

// run drives ts through a fresh engine and returns it with the
// multiset of emitted pairs.
func (c composeCase) run(t *testing.T, ts []squall.Tuple, opts ...squall.Option) (squall.Engine, [][2]uint64) {
	t.Helper()
	log := newPairLog()
	e := c.build(t, log.sink(), opts...)
	e.Start()
	sendAll(t, e, ts)
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	return e, log.pairs()
}

// checkpointRestore feeds half the stream and checkpoints, with the
// pacer taking further checkpoints, feeds another stretch, then
// "crashes": the operator is quiesced and dropped. The restored
// operator replays the dead one's log and takes the rest of the
// stream. The dead operator's per-shard output cut at the restored
// checkpoint plus everything the restored one emits is the oracle,
// exactly once.
func (c composeCase) checkpointRestore(t *testing.T) {
	ts := fluctuatingStream(int64(c.j) + 400)
	pred := squall.Equi("compose")
	backend := squall.NewMemBackend()
	first := newPairLog()
	op := c.build(t, first.sink(), squall.WithAdaptive(), squall.WithWarmup(400),
		squall.WithBackend(backend), squall.WithCheckpointEvery(1000)).(*squall.Operator)
	op.Start()
	half := len(ts) / 2
	sendAll(t, op, ts[:half])
	if err := op.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sendAll(t, op, ts[half:half+1500])
	// The crash: a real one kills the process; in one address space the
	// dead operator must stop emitting before its output is cut.
	if err := op.Finish(); err != nil {
		t.Fatal(err)
	}
	log := op.ReplayLog()
	if log.Len() == 0 {
		t.Fatal("the replay log is empty: the crash must leave input past the checkpoint")
	}

	second := newPairLog()
	rop, info, err := squall.Restore(backend, pred, second.sink(), squall.WithJoiners(c.j))
	if err != nil {
		t.Fatal(err)
	}
	if info.Joiners != c.grid {
		t.Fatalf("restored %d joiners, want %d", info.Joiners, c.grid)
	}
	rop.Start()
	if err := rop.ReplayFrom(log); err != nil {
		t.Fatal(err)
	}
	sendAll(t, rop, ts[half+1500:])
	if err := rop.Finish(); err != nil {
		t.Fatal(err)
	}
	exact.Equal(t, append(first.cut(info.Emitted), second.pairs()...), emitOracle(ts))
}

// pairLog collects the (R.Aux, S.Aux) identity of every emitted pair,
// per shard in emission order. The lock guards the map, which gains a
// shard when an expansion mints a joiner id.
type pairLog struct {
	mu     sync.Mutex
	shards map[int][][2]uint64
}

func newPairLog() *pairLog { return &pairLog{shards: map[int][][2]uint64{}} }

func (l *pairLog) sink() squall.Sink {
	return squall.Sharded(func(shard int, ps []squall.Pair) {
		l.mu.Lock()
		for i := range ps {
			l.shards[shard] = append(l.shards[shard], auxKey(&ps[i].R, &ps[i].S))
		}
		l.mu.Unlock()
	})
}

// pairs returns every shard's pairs.
func (l *pairLog) pairs() [][2]uint64 { return l.cut(nil) }

// cut returns each shard's first keep[shard] pairs, or all of them when
// keep is nil.
func (l *pairLog) cut(keep []int64) [][2]uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out [][2]uint64
	for shard, ps := range l.shards {
		if keep != nil {
			ps = ps[:min(int64(len(ps)), keep[shard])]
		}
		out = append(out, ps...)
	}
	return out
}

// sendAll feeds ts in stream order, 64 tuples per SendBatch.
func sendAll(t *testing.T, e squall.Engine, ts []squall.Tuple) {
	t.Helper()
	for len(ts) > 0 {
		n := min(64, len(ts))
		if err := e.SendBatch(ts[:n]); err != nil {
			t.Fatal(err)
		}
		ts = ts[n:]
	}
}

// fluctuatingStream alternates R-heavy and S-heavy stretches over 60
// keys, so an adaptive grid started square reshapes more than once.
func fluctuatingStream(seed int64) []squall.Tuple {
	rng := rand.New(rand.NewSource(seed))
	var ts []squall.Tuple
	aux := int64(0)
	for _, stretch := range []struct {
		side squall.Side
		n    int
	}{{squall.SideR, 1200}, {squall.SideS, 3000}, {squall.SideR, 2400}, {squall.SideS, 600}} {
		for i := 0; i < stretch.n; i++ {
			aux++
			ts = append(ts, squall.Tuple{Rel: stretch.side, Key: rng.Int63n(60), Aux: aux, Size: 8})
		}
	}
	return ts
}
