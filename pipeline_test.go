package squall_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	squall "repro"
	"repro/internal/exact"
)

// triple identifies one R ⋈ S ⋈ T result by its source-tuple ids:
// rid, sid and tid.
type triple [3]uint64

// tripleOf is the triple of one (R ⋈ S) ⋈ T pair: its R member is
// rekeyRS's tuple.
func tripleOf(rs, t *squall.Tuple) triple {
	return triple{uint64(rs.Aux / 1_000_000), uint64(rs.Aux % 1_000_000), uint64(t.Aux)}
}

// threeWayInputs builds the R, S, T streams for the multi-way tests:
// R and S join on k1; S carries the second join key k2 in its Aux
// (sid*1024 + k2); T joins the (R ⋈ S) intermediate on k2.
func threeWayInputs(nR, nS, nT int, k1Dom, k2Dom int64, seed int64) (rs, ss, ts []squall.Tuple) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nR; i++ {
		rs = append(rs, squall.Tuple{Rel: squall.SideR, Key: rng.Int63n(k1Dom), Aux: int64(i), Size: 8})
	}
	for i := 0; i < nS; i++ {
		k2 := rng.Int63n(k2Dom)
		ss = append(ss, squall.Tuple{Rel: squall.SideS, Key: rng.Int63n(k1Dom), Aux: int64(i)*1024 + k2, Size: 8})
	}
	for i := 0; i < nT; i++ {
		ts = append(ts, squall.Tuple{Rel: squall.SideS, Key: rng.Int63n(k2Dom), Aux: int64(i), Size: 8})
	}
	return rs, ss, ts
}

// rekeyRS turns one (r,s) pair into the downstream probe tuple: join
// key k2 from s's Aux, with (rid,sid) packed so the final output
// identifies its full lineage.
func rekeyRS(p squall.Pair) squall.Tuple {
	return squall.Tuple{
		Rel:  squall.SideR,
		Key:  p.S.Aux % 1024,                   // k2
		Aux:  p.R.Aux*1_000_000 + p.S.Aux/1024, // rid, sid
		Size: 8,
	}
}

// oracleThreeWay is exact's R ⋈ S ⋈ T: the R ⋈ S pairs on k1, rekeyed
// by rekeyRS, joined with T on k2.
func oracleThreeWay(rs, ss, ts []squall.Tuple) []triple {
	key := func(t *squall.Tuple) (int64, bool) { return t.Key, true }
	rekeyed := exact.Band(rs, ss, 0, key, func(r, s *squall.Tuple) squall.Tuple { return rekeyRS(squall.Pair{R: *r, S: *s}) })
	return exact.Band(rekeyed, ts, 0, key, tripleOf)
}

// A three-relation chained pipeline must match the nested-loop oracle
// pair for pair, under adaptive migration in both stages and at batch
// sizes 1 (the degenerate per-message plane) and 32.
func TestPipelineThreeWayOracle(t *testing.T) {
	const (
		nR, nS, nT = 400, 3000, 600
		k1Dom      = 100
		k2Dom      = 200
	)
	rs, ss, ts := threeWayInputs(nR, nS, nT, k1Dom, k2Dom, 17)
	want := oracleThreeWay(rs, ss, ts)

	for _, batchSize := range []int{1, 32} {
		batchSize := batchSize
		t.Run(fmt.Sprintf("BatchSize=%d", batchSize), func(t *testing.T) {
			var mu sync.Mutex
			var got []triple

			p := squall.NewPipeline(
				squall.WithJoiners(8),
				squall.WithAdaptive(),
				squall.WithSeed(99),
				squall.WithBatchSize(batchSize),
			)
			rsStage := p.Join(squall.Equi("r-s"), squall.WithWarmup(300))
			rstStage := rsStage.Join(squall.Equi("rs-t"), rekeyRS, squall.WithWarmup(500))
			rstStage.To(squall.Each(func(pr squall.Pair) {
				tr := tripleOf(&pr.R, &pr.S)
				mu.Lock()
				got = append(got, tr)
				mu.Unlock()
			}))
			if err := p.Run(context.Background()); err != nil {
				t.Fatal(err)
			}

			// Lopsided feed so both stages migrate mid-stream: all of R
			// first, then the S flood; T rides along in chunks.
			for i := range rs {
				if err := rsStage.Send(rs[i]); err != nil {
					t.Fatal(err)
				}
			}
			for start := 0; start < len(ts); start += 64 {
				end := start + 64
				if end > len(ts) {
					end = len(ts)
				}
				if err := rstStage.SendBatch(ts[start:end]); err != nil {
					t.Fatal(err)
				}
			}
			for start := 0; start < len(ss); start += 128 {
				end := start + 128
				if end > len(ss) {
					end = len(ss)
				}
				if err := rsStage.SendBatch(ss[start:end]); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Wait(); err != nil {
				t.Fatal(err)
			}

			if m := rsStage.Metrics().Migrations.Load(); m == 0 {
				t.Fatal("first stage performed no migrations; the test must cover adaptive chaining")
			}
			if m := rstStage.Metrics().Migrations.Load(); m == 0 {
				t.Fatal("second stage performed no migrations; the test must cover adaptive chaining")
			}

			exact.Equal(t, got, want)
		})
	}
}

// Chaining into a downstream stage with a non-power-of-two joiner
// count must stay exact while the bridge's forwarded pairs and the
// external T feed arrive concurrently.
func TestPipelineThreeWayGroupedTail(t *testing.T) {
	const (
		nR, nS, nT = 200, 1200, 300
		k1Dom      = 60
		k2Dom      = 120
	)
	rs, ss, ts := threeWayInputs(nR, nS, nT, k1Dom, k2Dom, 29)
	want := oracleThreeWay(rs, ss, ts)

	var mu sync.Mutex
	var got []triple
	p := squall.NewPipeline(squall.WithSeed(4), squall.WithAdaptive())
	rsStage := p.Join(squall.Equi("r-s"), squall.WithJoiners(8), squall.WithWarmup(200))
	rstStage := rsStage.Join(squall.Equi("rs-t"), rekeyRS, squall.WithJoiners(5))
	rstStage.To(squall.Each(func(pr squall.Pair) {
		tr := tripleOf(&pr.R, &pr.S)
		mu.Lock()
		got = append(got, tr)
		mu.Unlock()
	}))
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Feed T from a second goroutine while the R/S flood drives bridge
	// traffic into the same stage.
	tDone := make(chan error, 1)
	go func() {
		for start := 0; start < len(ts); start += 32 {
			end := start + 32
			if end > len(ts) {
				end = len(ts)
			}
			if err := rstStage.SendBatch(ts[start:end]); err != nil {
				tDone <- err
				return
			}
		}
		tDone <- nil
	}()
	for i := range rs {
		if err := rsStage.Send(rs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for start := 0; start < len(ss); start += 64 {
		end := start + 64
		if end > len(ss) {
			end = len(ss)
		}
		if err := rsStage.SendBatch(ss[start:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-tDone; err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}

	exact.Equal(t, got, want)
}

// Each, Batches, and Counter sinks must observe identical result
// volumes for the same stream.
func TestPipelineSinksEquivalent(t *testing.T) {
	feed := func(t *testing.T, sink squall.Sink) *squall.Pipeline {
		t.Helper()
		p := squall.NewPipeline(squall.WithJoiners(8), squall.WithSeed(5))
		st := p.Join(squall.Equi("eq")).To(sink)
		if err := p.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 4000; i++ {
			side := squall.SideR
			if i%2 == 1 {
				side = squall.SideS
			}
			if err := st.Send(squall.Tuple{Rel: side, Key: rng.Int63n(50), Size: 8}); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Wait(); err != nil {
			t.Fatal(err)
		}
		return p
	}

	var each, batched int64
	var mu sync.Mutex
	feed(t, squall.Each(func(squall.Pair) { mu.Lock(); each++; mu.Unlock() }))
	feed(t, squall.Batches(func(ps []squall.Pair) { mu.Lock(); batched += int64(len(ps)); mu.Unlock() }))
	counterSink, n := squall.Counter()
	feed(t, counterSink)
	if each == 0 || each != batched || each != n.Load() {
		t.Fatalf("sink results disagree: Each=%d Batches=%d Counter=%d", each, batched, n.Load())
	}
}

// Cancelling Run's context must stop every stage of a chained pipeline
// and propagate the error through Send and Wait.
func TestPipelineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := squall.NewPipeline(squall.WithJoiners(8), squall.WithSeed(1), squall.WithAdaptive(), squall.WithWarmup(100))
	s1 := p.Join(squall.Equi("first"))
	s2 := s1.Join(squall.Equi("second"), func(pr squall.Pair) squall.Tuple {
		return squall.Tuple{Rel: squall.SideR, Key: pr.R.Key}
	})
	s2.To(squall.Each(func(squall.Pair) {}))
	if err := p.Run(ctx); err != nil {
		t.Fatal(err)
	}

	sendErr := make(chan error, 1)
	go func() {
		rng := rand.New(rand.NewSource(2))
		for {
			side := squall.SideR
			if rng.Intn(2) == 1 {
				side = squall.SideS
			}
			if err := s1.Send(squall.Tuple{Rel: side, Key: rng.Int63n(64), Size: 8}); err != nil {
				sendErr <- err
				return
			}
		}
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()

	select {
	case err := <-sendErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Send unblocked with %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sender did not unblock after cancellation")
	}

	done := make(chan error, 1)
	go func() { done <- p.Wait() }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Wait = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait hung after cancellation")
	}

	// The pipeline is finished: stage sends now fail fast.
	if err := s2.Send(squall.Tuple{Rel: squall.SideS, Key: 1}); err == nil {
		t.Fatal("Send on finished pipeline returned nil")
	}
}

// A task panic inside a downstream stage must surface from Wait
// instead of being swallowed or deadlocking the drain.
func TestPipelineTaskPanicSurfaces(t *testing.T) {
	p := squall.NewPipeline(squall.WithJoiners(4), squall.WithSeed(1))
	s1 := p.Join(squall.Equi("ok"))
	s1.Join(squall.Theta("boom", func(r, s squall.Tuple) bool { panic("downstream predicate exploded") }),
		func(pr squall.Pair) squall.Tuple { return squall.Tuple{Rel: squall.SideR, Key: pr.R.Key} })
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A matching pair flows to stage 2 and meets a probe there.
	s1.Send(squall.Tuple{Rel: squall.SideR, Key: 7})
	s1.Send(squall.Tuple{Rel: squall.SideS, Key: 7})
	if err := p.Stages()[1].Send(squall.Tuple{Rel: squall.SideS, Key: 7}); err != nil {
		t.Logf("stage-2 send: %v (acceptable if the stage already died)", err)
	}

	done := make(chan error, 1)
	go func() { done <- p.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Wait = nil, want the downstream panic as an error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait deadlocked after downstream panic")
	}
}

// Lifecycle misuse must fail loudly and predictably.
func TestPipelineMisuse(t *testing.T) {
	p := squall.NewPipeline(squall.WithJoiners(4))
	s := p.Join(squall.Equi("eq"))
	if err := s.Send(squall.Tuple{Rel: squall.SideR, Key: 1}); !errors.Is(err, squall.ErrNotRunning) {
		t.Fatalf("Send before Run = %v, want ErrNotRunning", err)
	}
	if err := p.Wait(); !errors.Is(err, squall.ErrNotRunning) {
		t.Fatalf("Wait before Run = %v, want ErrNotRunning", err)
	}
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(context.Background()); err == nil {
		t.Fatal("second Run returned nil")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Join after Run did not panic")
			}
		}()
		p.Join(squall.Equi("late"))
	}()
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err != nil {
		t.Fatalf("second Wait = %v", err)
	}
	if err := s.Send(squall.Tuple{Rel: squall.SideR, Key: 1}); !errors.Is(err, squall.ErrFinished) {
		t.Fatalf("Send after Wait = %v, want ErrFinished", err)
	}

	empty := squall.NewPipeline()
	if err := empty.Run(context.Background()); err == nil {
		t.Fatal("Run on an empty pipeline returned nil")
	}
}

// A non-power-of-two joiner count runs a grid on the largest power of
// two below it, behind the same Stream surface.
func TestPipelineGroupedStage(t *testing.T) {
	sink, n := squall.Counter()
	p := squall.NewPipeline(squall.WithSeed(8))
	st := p.Join(squall.Band("band", 1), squall.WithJoiners(5)).To(sink)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := st.Send(squall.Tuple{Rel: squall.SideR, Key: 10}); err != nil {
		t.Fatal(err)
	}
	if err := st.SendBatch([]squall.Tuple{
		{Rel: squall.SideS, Key: 11},
		{Rel: squall.SideS, Key: 20},
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 1 {
		t.Fatalf("emitted %d, want 1", n.Load())
	}
	if got := st.Metrics().TotalOutputPairs(); got != 1 {
		t.Fatalf("metrics report %d output pairs, want 1", got)
	}
	if j := st.Metrics().NumJoiners(); j != 4 {
		t.Fatalf("WithJoiners(5) ran %d joiners, want 4", j)
	}
}

// Without WithBatchSize a chained stage's bridge forwards its parent's
// pairs in buffers of 32, not DefaultBatchSize: a bridge has no linger
// timer, so it ships a buffer only when full or when the parent
// finishes. One parent joiner emits 40 pairs; the child must have
// joined some of them with its stored T tuple before Wait.
func TestPipelineBridgeForwardsBeforeFinish(t *testing.T) {
	var n atomic.Int64
	p := squall.NewPipeline(squall.WithSeed(5))
	rsStage := p.Join(squall.Equi("r-s"), squall.WithJoiners(1))
	rstStage := rsStage.Join(squall.Equi("rs-t"), rekeyRS, squall.WithJoiners(1))
	rstStage.To(squall.Each(func(squall.Pair) { n.Add(1) }))
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := rstStage.Send(squall.Tuple{Rel: squall.SideS, Key: 0, Size: 8}); err != nil {
		t.Fatal(err)
	}
	in := []squall.Tuple{{Rel: squall.SideR, Key: 0, Size: 8}}
	for i := 0; i < 40; i++ {
		in = append(in, squall.Tuple{Rel: squall.SideS, Key: 0, Aux: int64(i) * 1024, Size: 8})
	}
	if err := rsStage.SendBatch(in); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); n.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no forwarded pair reached the chained stage before Wait")
		}
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := n.Load(); got != 40 {
		t.Fatalf("chained stage emitted %d pairs, want 40", got)
	}
}
