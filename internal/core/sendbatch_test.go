package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/exact"
	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/metrics"
)

// pairKey is the full value identity of an emitted pair: every field
// that survives the pipeline (seqs, keys, Aux and U of both members),
// so two runs agreeing on the multiset of pairKeys produced
// byte-identical results (our test tuples carry no payload).
type pairKey [8]uint64

func keyOf(r, s *join.Tuple) pairKey {
	return pairKey{r.Seq, s.Seq, uint64(r.Key), uint64(s.Key), uint64(r.Aux), uint64(s.Aux), r.U, s.U}
}

// oracleKeys is exact's pair multiset for tuples as a single feeder's
// Send stamps them, as pairKeys without the routing values, which the
// operator draws.
func oracleKeys(pred join.Predicate, tuples []join.Tuple) []pairKey {
	ts := slices.Clone(tuples)
	stampSeqs(ts, 0)
	return wantPairs(pred, ts, func(r, s *join.Tuple) pairKey { return withoutU(keyOf(r, s)) })
}

// withoutU drops a pairKey's routing values.
func withoutU(k pairKey) pairKey {
	k[6], k[7] = 0, 0
	return k
}

// checkOracle holds a reference run's pairs to the oracle, so that a
// fault every run of a differential shares fails it too.
func checkOracle(t *testing.T, label string, pred join.Predicate, tuples []join.Tuple, got []pairKey) {
	t.Helper()
	ks := make([]pairKey, len(got))
	for i := range got {
		ks[i] = withoutU(got[i])
	}
	if msg := exact.Diff(ks, oracleKeys(pred, tuples)); msg != "" {
		t.Fatalf("%s, against the oracle: %s", label, msg)
	}
}

// migratingStream is the lopsided stream the adaptive exactness tests
// share: a small R prefix then an S flood, forcing several elementary
// migrations mid-stream.
func migratingStream() []join.Tuple {
	rng := rand.New(rand.NewSource(42))
	var tuples []join.Tuple
	for i := 0; i < 250; i++ {
		tuples = append(tuples, join.Tuple{Rel: matrix.SideR, Key: rng.Int63n(60), Aux: rng.Int63n(100), Size: 8})
	}
	for i := 0; i < 11000; i++ {
		tuples = append(tuples, join.Tuple{Rel: matrix.SideS, Key: rng.Int63n(60), Aux: rng.Int63n(100), Size: 8})
	}
	return tuples
}

// feedFn delivers a tuple stream into an operator.
type feedFn func(t *testing.T, op *Operator, tuples []join.Tuple)

func feedSend(t *testing.T, op *Operator, tuples []join.Tuple) {
	for _, tp := range tuples {
		if err := op.Send(tp); err != nil {
			t.Fatal(err)
		}
	}
}

// feedChunks returns a feed delivering the stream via SendBatch in
// chunks of the given size.
func feedChunks(size int) feedFn {
	return func(t *testing.T, op *Operator, tuples []join.Tuple) {
		for start := 0; start < len(tuples); start += size {
			end := start + size
			if end > len(tuples) {
				end = len(tuples)
			}
			if err := op.SendBatch(tuples[start:end]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// feedMixed interleaves per-tuple Sends with SendBatch runs of varying
// size, exercising the boundary between the two entry points.
func feedMixed(t *testing.T, op *Operator, tuples []join.Tuple) {
	i := 0
	for n := 0; i < len(tuples); n++ {
		if n%2 == 0 {
			for k := 0; k < 3 && i < len(tuples); k++ {
				if err := op.Send(tuples[i]); err != nil {
					t.Fatal(err)
				}
				i++
			}
			continue
		}
		end := i + 1 + (n*7)%45
		if end > len(tuples) {
			end = len(tuples)
		}
		if err := op.SendBatch(tuples[i:end]); err != nil {
			t.Fatal(err)
		}
		i = end
	}
}

func runFeed(t *testing.T, cfg Config, tuples []join.Tuple, feed feedFn) ([]pairKey, *Operator) {
	t.Helper()
	var got *[]pairKey
	cfg.EmitBatch, got = keySink(keyOf, 0)
	op := mustOperator(t, cfg)
	op.Start()
	feed(t, op, tuples)
	if err := op.Finish(); err != nil {
		t.Fatalf("operator error: %v", err)
	}
	return *got, op
}

// SendBatch must be byte-identical to per-tuple Send: sequence numbers,
// routing values, and therefore every emitted pair's full contents
// match, across chunk sizes straddling the envelope capacity and mixed
// Send/SendBatch interleavings, with adaptive migrations relocating
// state mid-stream — on both the batched and the degenerate BatchSize=1
// message plane.
func TestSendBatchMatchesSendExact(t *testing.T) {
	tuples := migratingStream()
	for _, bs := range []int{1, 0} { // 0 = DefaultBatchSize
		cfg := Config{J: 16, Pred: join.EquiJoin("eq", nil), Adaptive: true, Warmup: 500, Seed: 11, BatchSize: bs}
		want, refOp := runFeed(t, cfg, tuples, feedSend)
		if refOp.Migrations() == 0 {
			t.Fatalf("BatchSize=%d: reference run had no migrations", bs)
		}
		checkOracle(t, fmt.Sprintf("BatchSize=%d per-tuple Send", bs), cfg.Pred, tuples, want)
		feeds := map[string]feedFn{"mixed": feedMixed}
		// The chunk sizes straddle the envelope capacity, and 4096 runs
		// far past the reshuffler's burst quota: sendItems splits such a
		// chunk into source envelopes of sourceBurst tuples.
		for _, n := range []int{1, 7, DefaultBatchSize - 1, DefaultBatchSize, DefaultBatchSize + 1, 4096} {
			feeds[fmt.Sprintf("chunk=%d", n)] = feedChunks(n)
		}
		for name, feed := range feeds {
			got, op := runFeed(t, cfg, tuples, feed)
			if msg := exact.Diff(got, want); msg != "" {
				t.Fatalf("BatchSize=%d %s (migrations=%d), against per-tuple Send: %s", bs, name, op.Migrations(), msg)
			}
		}
	}
}

// For a non-power-of-two J (12 runs an 8-joiner grid), SendBatch must
// match a per-tuple Send loop exactly under adaptive migration.
func TestGroupedSendBatchMatchesSendExact(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	var tuples []join.Tuple
	for burst := 0; burst < 4; burst++ {
		side := matrix.SideR
		if burst%2 == 1 {
			side = matrix.SideS
		}
		for i := 0; i < 1500; i++ {
			tuples = append(tuples, join.Tuple{Rel: side, Key: rng.Int63n(150), Size: 8})
		}
	}
	run := func(batch int) []pairKey {
		emit, got := keySink(keyOf, 0)
		op := mustOperator(t, Config{J: 12, Pred: join.EquiJoin("eq", nil), Adaptive: true, Seed: 9, EmitBatch: emit})
		op.Start()
		if batch == 0 {
			for _, tp := range tuples {
				if err := op.Send(tp); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			for start := 0; start < len(tuples); start += batch {
				end := start + batch
				if end > len(tuples) {
					end = len(tuples)
				}
				if err := op.SendBatch(tuples[start:end]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := op.Finish(); err != nil {
			t.Fatal(err)
		}
		return *got
	}
	want := run(0)
	checkOracle(t, "per-tuple Send", join.EquiJoin("eq", nil), tuples, want)
	for _, batch := range []int{1, 33} {
		if msg := exact.Diff(run(batch), want); msg != "" {
			t.Fatalf("SendBatch(%d), against Send: %s", batch, msg)
		}
	}
}

// Send and SendBatch after Finish must return ErrFinished instead of
// panicking on the closed source rings; a second Finish is a no-op.
func TestSendAfterFinishReturnsError(t *testing.T) {
	op := mustOperator(t, Config{J: 4, Pred: join.EquiJoin("eq", nil), Seed: 1})
	op.Start()
	if err := op.Send(join.Tuple{Rel: matrix.SideR, Key: 1}); err != nil {
		t.Fatal(err)
	}
	if err := op.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := op.Send(join.Tuple{Rel: matrix.SideS, Key: 1}); !errors.Is(err, ErrFinished) {
		t.Fatalf("Send after Finish: err=%v, want ErrFinished", err)
	}
	if err := op.SendBatch([]join.Tuple{{Rel: matrix.SideS, Key: 1}}); !errors.Is(err, ErrFinished) {
		t.Fatalf("SendBatch after Finish: err=%v, want ErrFinished", err)
	}
	if err := op.Finish(); err != nil {
		t.Fatalf("second Finish: %v", err)
	}
}

// A chunked SendBatch feed must deliver exactly the pairs a Send loop
// does through the same EmitBatch sink, with runs actually batched
// under fanout, migration results included.
func TestEmitBatchReceivesAllResults(t *testing.T) {
	tuples := migratingStream()
	cfg := Config{J: 16, Pred: join.EquiJoin("eq", nil), Adaptive: true, Warmup: 500, Seed: 11}
	want, _ := runFeed(t, cfg, tuples, feedSend)
	checkOracle(t, "per-tuple Send", cfg.Pred, tuples, want)

	emit, got := keySink(keyOf, 0)
	var mu sync.Mutex
	var flushes, maxRun int
	cfg2 := cfg
	cfg2.EmitBatch = func(ps []join.Pair) {
		mu.Lock()
		flushes++
		if len(ps) > maxRun {
			maxRun = len(ps)
		}
		mu.Unlock()
		emit(ps)
	}
	op := mustOperator(t, cfg2)
	op.Start()
	feedChunks(DefaultBatchSize)(t, op, tuples)
	if err := op.Finish(); err != nil {
		t.Fatal(err)
	}
	n := len(*got)
	if msg := exact.Diff(*got, want); msg != "" {
		t.Fatalf("SendBatch feed, against Send: %s", msg)
	}
	if flushes >= n {
		t.Fatalf("EmitBatch never batched: %d flushes for %d pairs", flushes, n)
	}
	if maxRun < 2 {
		t.Fatalf("EmitBatch max run %d, want >= 2", maxRun)
	}
	if pairs := op.Metrics().TotalOutputPairs(); pairs != int64(n) {
		t.Fatalf("OutputPairs accounting %d, sink saw %d", pairs, n)
	}
}

// EmitBatch flush ordering must preserve the latency sampler's
// accounting: every sampled pair's newer tuple has its arrival recorded
// before the flush emits it, so the sample count is identical across
// the per-tuple, batched, and EmitBatch-sinked paths.
func TestEmitBatchPreservesLatencySampling(t *testing.T) {
	tuples := migratingStream()
	base := Config{J: 16, Pred: join.EquiJoin("eq", nil), Adaptive: true, Warmup: 500, Seed: 11}

	counts := make([]int, 0, 3)
	for _, mode := range []string{"send", "sendbatch", "emitbatch"} {
		lat := metrics.NewLatencySampler(16)
		cfg := base
		cfg.Latency = lat
		var op *Operator
		switch mode {
		case "emitbatch":
			cfg.EmitBatch = func([]join.Pair) {}
			op = mustOperator(t, cfg)
			op.Start()
			feedChunks(DefaultBatchSize)(t, op, tuples)
		case "sendbatch":
			op = mustOperator(t, cfg)
			op.Start()
			feedChunks(DefaultBatchSize)(t, op, tuples)
		default:
			op = mustOperator(t, cfg)
			op.Start()
			feedSend(t, op, tuples)
		}
		if err := op.Finish(); err != nil {
			t.Fatal(err)
		}
		if lat.Count() == 0 {
			t.Fatalf("%s: no latency samples captured", mode)
		}
		counts = append(counts, lat.Count())
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Fatalf("latency sample counts diverge across paths: %v (a dropped sample means an emit outran its arrival)", counts)
	}
}

// dealTarget's multiply-shift reduction must spread sequential sequence
// numbers evenly: every reshuffler within ±10%% of the mean on 1e5
// sequential seqs, for reshuffler counts crossing powers of two.
func TestDealTargetDistribution(t *testing.T) {
	const total = 100000
	for _, n := range []int{2, 3, 4, 7, 16, 48} {
		counts := make([]int, n)
		for seq := uint64(1); seq <= total; seq++ {
			d := dealTarget(seq, n)
			if d < 0 || d >= n {
				t.Fatalf("n=%d: dealTarget(%d) = %d out of range", n, seq, d)
			}
			counts[d]++
		}
		mean := float64(total) / float64(n)
		for i, c := range counts {
			if dev := float64(c)/mean - 1; dev > 0.10 || dev < -0.10 {
				t.Fatalf("n=%d: reshuffler %d got %d of %d (%.1f%% off the mean)", n, i, c, total, 100*dev)
			}
		}
	}
}
