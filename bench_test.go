// Benchmarks regenerating every table and figure of the paper (run
// with `go test -bench=. -benchmem`), plus micro-benchmarks of the
// core data structures and ablations of three design choices: Alg. 2's
// ε tradeoff, locality-aware migration, and the adaptation warmup.
//
// Each Benchmark<Artifact> executes the corresponding experiment at a
// reduced scale and reports the headline quantity of that artifact via
// b.ReportMetric, so `go test -bench` output doubles as a compact
// reproduction record.
package squall_test

import (
	"context"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	squall "repro"
	"repro/internal/experiments"
	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/storage"
)

func benchOpts() experiments.Options { return experiments.Options{SF: 0.02, Seed: 2014} }

func cell(b *testing.B, s string) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "*"), 64)
	if err != nil {
		b.Fatalf("cell %q: %v", s, err)
	}
	return v
}

// BenchmarkTable2 regenerates Table 2 (skew resilience) and reports
// the Z4/Z0 runtime blow-up of SHJ versus Dynamic's.
func BenchmarkTable2(b *testing.B) {
	var shjBlowup, dynBlowup float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2(benchOpts())[0].Rows
		var z0SHJ, z4SHJ, z0Dyn, z4Dyn float64
		for _, r := range rows {
			if r[0] != "EQ5" {
				continue
			}
			switch r[1] {
			case "Z0":
				z0SHJ, z0Dyn = cell(b, r[2]), cell(b, r[3])
			case "Z4":
				z4SHJ, z4Dyn = cell(b, r[2]), cell(b, r[3])
			}
		}
		shjBlowup = z4SHJ / z0SHJ
		dynBlowup = z4Dyn / z0Dyn
	}
	b.ReportMetric(shjBlowup, "SHJ-Z4/Z0")
	b.ReportMetric(dynBlowup, "Dyn-Z4/Z0")
}

// BenchmarkFig6a reports the final Dynamic-vs-StaticMid ILF ratio of
// the Fig. 6a growth curves.
func BenchmarkFig6a(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig6a(benchOpts())[0].Rows
		final := rows[len(rows)-1]
		ratio = cell(b, final[2]) / cell(b, final[3]) // StaticMid / Dynamic
	}
	b.ReportMetric(ratio, "Mid/Dyn-ILF")
}

// BenchmarkFig6b reports the same ratio from the final-ILF bar chart.
func BenchmarkFig6b(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig6b(benchOpts())[0].Rows
		ratio = cell(b, rows[0][2]) / cell(b, rows[0][3])
	}
	b.ReportMetric(ratio, "Mid/Dyn-ILF")
}

// BenchmarkFig6c reports the StaticMid/Dynamic completion-time ratio.
func BenchmarkFig6c(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig6c(benchOpts())[0].Rows
		final := rows[len(rows)-1]
		ratio = cell(b, final[1]) / cell(b, final[2])
	}
	b.ReportMetric(ratio, "Mid/Dyn-time")
}

// BenchmarkFig6d reports the worst query's StaticMid/Dynamic runtime
// ratio (the paper's "up to 4x faster").
func BenchmarkFig6d(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, r := range experiments.Fig6d(benchOpts())[0].Rows {
			if ratio := cell(b, r[1]) / cell(b, r[2]); ratio > worst {
				worst = ratio
			}
		}
	}
	b.ReportMetric(worst, "max-Mid/Dyn")
}

// BenchmarkFig7a reports Dynamic's throughput advantage over StaticMid.
func BenchmarkFig7a(b *testing.B) {
	var adv float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig7a(benchOpts())[0].Rows
		adv = cell(b, rows[0][3]) / cell(b, rows[0][2])
	}
	b.ReportMetric(adv, "Dyn/Mid-tput")
}

// BenchmarkFig7b runs the live latency experiment and reports
// Dynamic's mean latency in milliseconds.
func BenchmarkFig7b(b *testing.B) {
	var ms float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig7b(benchOpts())[0].Rows
		if rows[0][2] != "n/a" && rows[0][2] != "err" {
			ms = cell(b, rows[0][2])
		}
	}
	b.ReportMetric(ms, "Dyn-ms")
}

// BenchmarkFig7c reports how much of the (1,64)-point ILF gap remains
// at the (8,8) point (the gap should close).
func BenchmarkFig7c(b *testing.B) {
	var closing float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig7c(benchOpts())[0].Rows
		first := cell(b, rows[0][1]) - cell(b, rows[0][2])
		last := cell(b, rows[len(rows)-1][1]) - cell(b, rows[len(rows)-1][2])
		closing = last / first
	}
	b.ReportMetric(closing, "gap-left")
}

// BenchmarkFig7d reports the throughput gap closing across the sweep.
func BenchmarkFig7d(b *testing.B) {
	var ratioAtSquare float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig7d(benchOpts())[0].Rows
		last := rows[len(rows)-1]
		ratioAtSquare = cell(b, last[2]) / cell(b, last[1])
	}
	b.ReportMetric(ratioAtSquare, "Dyn/Mid-at-(8,8)")
}

// BenchmarkFig8a reports the weak-scalability time drift of EQ5
// (last/first config; ~1.0 is perfect).
func BenchmarkFig8a(b *testing.B) {
	var drift float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig8a(benchOpts())[0].Rows
		drift = cell(b, rows[len(rows)-1][1]) / cell(b, rows[0][1])
	}
	b.ReportMetric(drift, "EQ5-time-drift")
}

// BenchmarkFig8b reports EQ5's throughput scaling across the 8x sweep.
func BenchmarkFig8b(b *testing.B) {
	var scaling float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig8b(benchOpts())[0].Rows
		scaling = cell(b, rows[len(rows)-1][1]) / cell(b, rows[0][1])
	}
	b.ReportMetric(scaling, "EQ5-tput-x")
}

// BenchmarkFig8c reports the worst post-warmup competitive ratio
// across fluctuation factors (bound: 1.25).
func BenchmarkFig8c(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, r := range experiments.Fig8c(benchOpts())[0].Rows {
			if v := cell(b, r[1]); v > worst {
				worst = v
			}
		}
	}
	b.ReportMetric(worst, "max-ratio")
}

// BenchmarkFig8d reports the k=8 deviation from linear progress.
func BenchmarkFig8d(b *testing.B) {
	var dev float64
	for i := 0; i < b.N; i++ {
		tb := experiments.Fig8d(benchOpts())[0]
		note := tb.Notes[len(tb.Notes)-1] // "k=8 max deviation from linear: X%"
		f := strings.Fields(note)
		dev = cell(b, strings.TrimSuffix(f[len(f)-1], "%"))
	}
	b.ReportMetric(dev, "k8-dev-%")
}

// --- Micro-benchmarks of the core machinery ---

// BenchmarkOperatorEquiThroughput measures the live concurrent
// operator end to end.
func BenchmarkOperatorEquiThroughput(b *testing.B) {
	var n atomic.Int64
	op := squall.NewOperator(squall.Config{
		J: 16, Pred: squall.EquiJoin("bench", nil), Adaptive: true, Warmup: 10000,
		Emit: func(squall.Pair) { n.Add(1) },
	})
	op.Start()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		side := squall.SideR
		if i%2 == 1 {
			side = squall.SideS
		}
		op.Send(squall.Tuple{Rel: side, Key: rng.Int63n(1 << 20), Size: 8})
	}
	b.StopTimer()
	if err := op.Finish(); err != nil {
		b.Fatal(err)
	}
}

// sparseStream pre-builds an interleaved R/S stream with keys sparse
// enough that ingest, not output, dominates.
func sparseStream(n int) []squall.Tuple {
	rng := rand.New(rand.NewSource(1))
	tuples := make([]squall.Tuple, n)
	for i := range tuples {
		side := squall.SideR
		if i%2 == 1 {
			side = squall.SideS
		}
		tuples[i] = squall.Tuple{Rel: side, Key: rng.Int63n(1 << 20), Size: 8}
	}
	return tuples
}

// BenchmarkOperatorIngest measures the reshuffler->joiner message
// plane end to end at different batch sizes: batch=1 is the seed's
// per-message plane, batch=32 the default batched plane; the ns/op gap
// is the amortized per-tuple synchronization cost the batching removes
// (the PR-1 trajectory point in BENCH_PR1.json). The sendbatch=N runs
// feed the same stream through SendBatch in N-tuple runs, measuring
// the batched ingest front end on top of the batched plane (the PR-3
// trajectory point in BENCH_PR3.json).
func BenchmarkOperatorIngest(b *testing.B) {
	run := func(b *testing.B, bs, chunk int) {
		// Pre-build the stream so the timed region is purely the
		// operator: Send through Finish (full pipeline drain), which
		// keeps ns/op stable regardless of backpressure phase.
		tuples := sparseStream(b.N)
		var n atomic.Int64
		op := squall.NewOperator(squall.Config{
			J: 16, Pred: squall.EquiJoin("bench", nil), BatchSize: bs, Seed: 1,
			Emit: func(squall.Pair) { n.Add(1) },
		})
		op.Start()
		b.ResetTimer()
		if chunk <= 1 {
			for i := range tuples {
				if err := op.Send(tuples[i]); err != nil {
					b.Fatal(err)
				}
			}
		} else {
			for start := 0; start < len(tuples); start += chunk {
				end := start + chunk
				if end > len(tuples) {
					end = len(tuples)
				}
				if err := op.SendBatch(tuples[start:end]); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := op.Finish(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		b.ReportMetric(op.Metrics().MeanBatchSize(), "msgs/batch")
	}
	for _, bs := range []int{1, 32, 64, 128} {
		bs := bs
		b.Run("batch="+strconv.Itoa(bs), func(b *testing.B) { run(b, bs, 1) })
	}
	for _, bs := range []int{32, 128} {
		bs := bs
		b.Run("sendbatch="+strconv.Itoa(bs), func(b *testing.B) { run(b, bs, bs) })
	}
}

// BenchmarkOperatorIngestFanout measures the output-dominated regime:
// keys land in a small domain, so every probe fans out into many
// matches and the emit sink, not the ingest plane, carries most of the
// volume — the workload the vectorized emit sink (EmitBatch, per-flush
// accounting) is for. Each iteration runs a fixed-size stream through
// a fresh operator (output volume grows quadratically with stream
// length, so scaling the stream with b.N would not measure a rate);
// ns/tuple and pairs/tuple are reported per metric.
func BenchmarkOperatorIngestFanout(b *testing.B) {
	const (
		nTuples = 100000
		domain  = 512
	)
	stream := func() []squall.Tuple {
		rng := rand.New(rand.NewSource(7))
		tuples := make([]squall.Tuple, nTuples)
		for i := range tuples {
			side := squall.SideR
			if i%2 == 1 {
				side = squall.SideS
			}
			tuples[i] = squall.Tuple{Rel: side, Key: rng.Int63n(domain), Size: 8}
		}
		return tuples
	}
	for _, mode := range []string{"batch=32", "sendbatch=32", "sendbatch=32+workers"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			tuples := stream()
			var pairs int64
			b.ResetTimer()
			for iter := 0; iter < b.N; iter++ {
				var n atomic.Int64
				counters := make([]shardCounter, 16)
				cfg := squall.Config{J: 16, Pred: squall.EquiJoin("bench", nil), Seed: 1}
				switch mode {
				case "sendbatch=32":
					cfg.EmitBatch = func(ps []squall.Pair) { n.Add(int64(len(ps))) }
				case "sendbatch=32+workers":
					// The PR-7 emit plane: dedicated emit workers drain
					// pooled pair buffers into per-shard padded counters.
					cfg.EmitWorkers = runtime.GOMAXPROCS(0)
					cfg.EmitShard = func(shard int, ps []squall.Pair) {
						counters[shard].n.Add(int64(len(ps)))
					}
				default:
					cfg.Emit = func(squall.Pair) { n.Add(1) }
				}
				op := squall.NewOperator(cfg)
				op.Start()
				if mode != "batch=32" {
					for start := 0; start < len(tuples); start += 32 {
						end := start + 32
						if end > len(tuples) {
							end = len(tuples)
						}
						if err := op.SendBatch(tuples[start:end]); err != nil {
							b.Fatal(err)
						}
					}
				} else {
					for i := range tuples {
						if err := op.Send(tuples[i]); err != nil {
							b.Fatal(err)
						}
					}
				}
				if err := op.Finish(); err != nil {
					b.Fatal(err)
				}
				pairs = n.Load()
				for i := range counters {
					pairs += counters[i].n.Load()
				}
			}
			b.StopTimer()
			perIter := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(perIter/nTuples, "ns/tuple")
			b.ReportMetric(float64(pairs)/nTuples, "pairs/tuple")
		})
	}
}

// BenchmarkPipelineChain measures the cost of multi-way chaining
// through the pipeline API against the same plan hand-wired from raw
// operators: two equi-join stages, the first stage's pairs re-keyed
// and forwarded into the second, over a fixed pre-generated stream.
// The "handwired" mode wires op1's EmitBatch into op2.SendBatch with
// an inline rekey buffer — exactly what the pipeline's bridge does —
// so the delta between the modes is the pipeline abstraction's
// overhead (acceptance: <= 10%). Each iteration runs the fixed stream
// through fresh engines; ns/tuple is reported over the externally fed
// tuples.
func BenchmarkPipelineChain(b *testing.B) {
	const (
		nStage1 = 60000 // R and S interleaved, keys in [0, 2^14)
		nStage2 = 10000 // T, keys in [0, 2^13)
		k1Dom   = 1 << 14
		k2Dom   = 1 << 13
		chunk   = 32
	)
	stage1, stage2 := chainStreams(nStage1, nStage2, k1Dom, k2Dom)
	rekey := func(pr squall.Pair) squall.Tuple {
		return squall.Tuple{Rel: squall.SideR, Key: (pr.R.Key*31 + pr.S.Key) % k2Dom, Size: 8}
	}
	feed := func(b *testing.B, send1, send2 func([]squall.Tuple) error) {
		b.Helper()
		for start := 0; start < len(stage2); start += chunk {
			if err := send2(stage2[start:min(start+chunk, len(stage2))]); err != nil {
				b.Fatal(err)
			}
		}
		for start := 0; start < len(stage1); start += chunk {
			if err := send1(stage1[start:min(start+chunk, len(stage1))]); err != nil {
				b.Fatal(err)
			}
		}
	}

	var pipelinePairs, handwiredPairs int64
	b.Run("pipeline", func(b *testing.B) {
		var pairs int64
		b.ResetTimer()
		for iter := 0; iter < b.N; iter++ {
			sink, n := squall.Counter()
			p := squall.NewPipeline(squall.WithJoiners(16), squall.WithSeed(1))
			s1 := p.Join(squall.Equi("chain-1"))
			s2 := s1.Join(squall.Equi("chain-2"), rekey).To(sink)
			if err := p.Run(context.Background()); err != nil {
				b.Fatal(err)
			}
			feed(b, s1.SendBatch, s2.SendBatch)
			if err := p.Wait(); err != nil {
				b.Fatal(err)
			}
			pairs = n.Load()
		}
		b.StopTimer()
		reportChain(b, pairs, nStage1+nStage2)
		pipelinePairs = pairs
	})
	b.Run("handwired", func(b *testing.B) {
		var pairs int64
		b.ResetTimer()
		for iter := 0; iter < b.N; iter++ {
			var n atomic.Int64
			op2 := squall.NewOperator(squall.Config{
				J: 16, Pred: squall.EquiJoin("chain-2", nil), Seed: 1,
				EmitBatch: func(ps []squall.Pair) { n.Add(int64(len(ps))) },
			})
			var mu sync.Mutex
			buf := make([]squall.Tuple, 0, squall.DefaultBatchSize)
			op1 := squall.NewOperator(squall.Config{
				J: 16, Pred: squall.EquiJoin("chain-1", nil), Seed: 1,
				EmitBatch: func(ps []squall.Pair) {
					mu.Lock()
					for i := range ps {
						buf = append(buf, rekey(ps[i]))
						if len(buf) == cap(buf) {
							if err := op2.SendBatch(buf); err != nil {
								panic(err)
							}
							buf = buf[:0]
						}
					}
					mu.Unlock()
				},
			})
			op1.Start()
			op2.Start()
			feed(b, op1.SendBatch, op2.SendBatch)
			if err := op1.Finish(); err != nil {
				b.Fatal(err)
			}
			if err := op2.SendBatch(buf); err != nil {
				b.Fatal(err)
			}
			buf = buf[:0]
			if err := op2.Finish(); err != nil {
				b.Fatal(err)
			}
			pairs = n.Load()
		}
		b.StopTimer()
		reportChain(b, pairs, nStage1+nStage2)
		handwiredPairs = pairs
	})
	if pipelinePairs != 0 && handwiredPairs != 0 && pipelinePairs != handwiredPairs {
		b.Fatalf("pipeline emitted %d pairs, handwired %d — the modes must compute the same join",
			pipelinePairs, handwiredPairs)
	}
}

// chainStreams pre-builds the fixed two-stage input: an interleaved
// R/S stream for stage 1 and a T stream for stage 2.
func chainStreams(nStage1, nStage2 int, k1Dom, k2Dom int64) (stage1, stage2 []squall.Tuple) {
	rng := rand.New(rand.NewSource(23))
	stage1 = make([]squall.Tuple, nStage1)
	for i := range stage1 {
		side := squall.SideR
		if i%2 == 1 {
			side = squall.SideS
		}
		stage1[i] = squall.Tuple{Rel: side, Key: rng.Int63n(k1Dom), Size: 8}
	}
	stage2 = make([]squall.Tuple, nStage2)
	for i := range stage2 {
		stage2[i] = squall.Tuple{Rel: squall.SideS, Key: rng.Int63n(k2Dom), Size: 8}
	}
	return stage1, stage2
}

func reportChain(b *testing.B, pairs int64, fedTuples int) {
	perIter := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(perIter/float64(fedTuples), "ns/tuple")
	b.ReportMetric(float64(pairs), "final-pairs")
}

// BenchmarkCheckpoint measures the durability plane of PR 8: each
// sub-benchmark builds a fixed amount of joiner state, then times
// repeated Operator.Checkpoint calls — the full barrier round trip
// (marker broadcast, per-joiner arena serialization, backend commit).
// ms/ckpt is the caller-visible checkpoint latency (ingest is never
// paused; this is the commit wait), MB/s the snapshot serialization
// rate, and snap-MB the committed blob size, so the three metrics
// together give pause-time and bytes/sec versus state size. The mem
// modes isolate serialization from disk; the file mode adds the
// FileBackend's write-fsync-rename commit.
func BenchmarkCheckpoint(b *testing.B) {
	run := func(b *testing.B, n int, backend squall.Backend) {
		var cnt atomic.Int64
		op := squall.NewOperator(squall.Config{
			J: 16, Pred: squall.EquiJoin("bench", nil), Seed: 1,
			Backend: backend,
			// Force every snapshot full: this benchmark measures the
			// whole-state serialization plane (BenchmarkCheckpointIncremental
			// covers the delta path).
			CheckpointCompactEvery: 1,
			EmitBatch:              func(ps []squall.Pair) { cnt.Add(int64(len(ps))) },
		})
		op.Start()
		tuples := sparseStream(n)
		for start := 0; start < len(tuples); start += 32 {
			end := start + 32
			if end > len(tuples) {
				end = len(tuples)
			}
			if err := op.SendBatch(tuples[start:end]); err != nil {
				b.Fatal(err)
			}
		}
		// One untimed checkpoint warms the serialization pools and trims
		// the replay log, so the timed region measures the steady state.
		if err := op.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		gens, err := backend.Generations()
		if err != nil || len(gens) == 0 {
			b.Fatalf("no committed checkpoint to size (gens=%v err=%v)", gens, err)
		}
		blobs, err := backend.Load(gens[0])
		if err != nil {
			b.Fatal(err)
		}
		snapBytes := 0
		for _, bl := range blobs {
			snapBytes += len(bl.Data)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := op.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := op.Finish(); err != nil {
			b.Fatal(err)
		}
		perCkpt := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(perCkpt/1e6, "ms/ckpt")
		b.ReportMetric(float64(snapBytes)/perCkpt*1e3, "MB/s")
		b.ReportMetric(float64(snapBytes)/1e6, "snap-MB")
	}
	for _, n := range []int{20000, 100000} {
		n := n
		b.Run("tuples="+strconv.Itoa(n)+"/mem", func(b *testing.B) {
			run(b, n, squall.NewMemBackend())
		})
	}
	b.Run("tuples=100000/file", func(b *testing.B) {
		backend, err := squall.NewFileBackend(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		run(b, 100000, backend)
	})
}

// countingBackend wraps a Backend and sums committed checkpoint
// payload bytes, so a benchmark can report the exact bytes shipped per
// checkpoint without re-loading generations.
type countingBackend struct {
	squall.Backend
	writes atomic.Int64
	bytes  atomic.Int64
}

func (c *countingBackend) Write(gen uint64, data []byte, deps []uint64) error {
	err := c.Backend.Write(gen, data, deps)
	if err == nil {
		c.writes.Add(1)
		c.bytes.Add(int64(len(data)))
	}
	return err
}

// BenchmarkCheckpointIncremental measures the PR-9 incremental
// checkpoint plane: after a 100k-tuple base and one full checkpoint,
// each iteration ingests a fraction of the base (1%, 10%, or 100%)
// and checkpoints it. The delta modes never compact, so every timed
// commit ships only the blocks appended since the last one; the full
// modes force CheckpointCompactEvery=1, so every commit re-ships the
// whole (growing) state — the baseline the delta payload and pause are
// judged against at the same ingest cadence. Ingest happens with the
// timer stopped: ms/ckpt is the pure checkpoint pause, payload-MB the
// average committed payload.
func BenchmarkCheckpointIncremental(b *testing.B) {
	const base = 100000
	run := func(b *testing.B, frac float64, compactEvery int) {
		cb := &countingBackend{Backend: squall.NewMemBackend()}
		var cnt atomic.Int64
		op := squall.NewOperator(squall.Config{
			J: 16, Pred: squall.EquiJoin("bench", nil), Seed: 1,
			Backend:                cb,
			CheckpointCompactEvery: compactEvery,
			EmitBatch:              func(ps []squall.Pair) { cnt.Add(int64(len(ps))) },
		})
		op.Start()
		// Unique keys with alternating sides: no key ever appears on
		// both sides, so the state grows without emitting pairs.
		next := int64(0)
		buf := make([]squall.Tuple, 0, 32)
		feed := func(n int) {
			for i := 0; i < n; i++ {
				side := squall.SideR
				if next%2 == 1 {
					side = squall.SideS
				}
				buf = append(buf, squall.Tuple{Rel: side, Key: next, Size: 8})
				next++
				if len(buf) == cap(buf) {
					if err := op.SendBatch(buf); err != nil {
						b.Fatal(err)
					}
					buf = buf[:0]
				}
			}
			if len(buf) > 0 {
				if err := op.SendBatch(buf); err != nil {
					b.Fatal(err)
				}
				buf = buf[:0]
			}
		}
		feed(base)
		if err := op.Checkpoint(); err != nil { // untimed full base
			b.Fatal(err)
		}
		cb.writes.Store(0)
		cb.bytes.Store(0)
		deltaN := int(frac * base)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			feed(deltaN)
			b.StartTimer()
			if err := op.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := op.Finish(); err != nil {
			b.Fatal(err)
		}
		perCkpt := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(perCkpt/1e6, "ms/ckpt")
		if w := cb.writes.Load(); w > 0 {
			b.ReportMetric(float64(cb.bytes.Load())/float64(w)/1e6, "payload-MB")
		}
	}
	never := 1 << 30 // no compaction: every timed checkpoint is a delta
	for _, tc := range []struct {
		frac float64
		name string
	}{
		{0.01, "frac=1pct"},
		{0.10, "frac=10pct"},
		{1.00, "frac=100pct"},
	} {
		tc := tc
		b.Run(tc.name+"/delta", func(b *testing.B) { run(b, tc.frac, never) })
		if tc.frac < 1 {
			b.Run(tc.name+"/full", func(b *testing.B) { run(b, tc.frac, 1) })
		}
	}
}

// BenchmarkStoreBuild measures the insert plane of the joiner store in
// isolation: unique keys (R even, S odd), so every probe misses and no
// output is produced — the workload is purely hash-directory inserts
// and columnar arena appends, the cost BenchmarkOperatorIngest buries
// under routing and channel work. Each iteration builds a fresh store
// from a fixed pre-generated stream of same-side runs (the shape the
// joiner feeds AddBatchCollect); reserve=... selects whether the store
// gets the full-stream Reserve hint up front, so the delta between the
// two sub-benchmarks is the total cost of incremental directory growth
// and arena allocation. After the timed loop an untimed probe ingests
// one more stream through a presized (resp. growing) store and reports
// steady-state amortized allocations per tuple over its second half.
func BenchmarkStoreBuild(b *testing.B) {
	const (
		nTuples = 1 << 18
		runLen  = 64
	)
	stream := make([]squall.Tuple, nTuples)
	for i := range stream {
		side, key := squall.SideR, int64(2*i)
		if (i/runLen)%2 == 1 {
			side, key = squall.SideS, int64(2*i+1)
		}
		stream[i] = squall.Tuple{Rel: side, Key: key, Size: 8, Seq: uint64(i + 1)}
	}
	build := func(reserve bool, from, to int, st *storage.Store, out *[]join.Pair) *storage.Store {
		if st == nil {
			st = storage.NewStore(join.EquiJoin("bench", nil), storage.Config{})
			if reserve {
				st.Reserve(nTuples/2, nTuples/2)
			}
		}
		for start := from; start < to; start += runLen {
			st.AddBatchCollect(stream[start:start+runLen], out)
			*out = (*out)[:0]
		}
		return st
	}
	for _, mode := range []string{"reserve=0", "reserve=exact"} {
		reserve := mode == "reserve=exact"
		b.Run(mode, func(b *testing.B) {
			var out []join.Pair
			b.ResetTimer()
			for iter := 0; iter < b.N; iter++ {
				build(reserve, 0, nTuples, nil, &out)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/nTuples, "ns/tuple")
			// Steady-state allocation probe: first half warms the store
			// (pools, directory, arena at working size), the second half
			// is measured.
			st := build(reserve, 0, nTuples/2, nil, &out)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			build(reserve, nTuples/2, nTuples, st, &out)
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/(nTuples/2), "steady-allocs/tuple")
		})
	}
}

// BenchmarkMigrationDrain measures the adaptation cost the paper's
// design bounds: wall time from a migration decision (epoch broadcast)
// to its finalization (last joiner ack), under steady ingest, averaged
// over the elementary steps the run performs. mig=1 is the per-message
// migration plane; mig=default batches kMigTuple envelopes like the
// data plane (the PR-2 trajectory point in BENCH_PR2.json).
func BenchmarkMigrationDrain(b *testing.B) {
	for _, mig := range []int{1, 0} {
		name := "mig=1"
		if mig == 0 {
			name = "mig=default"
		}
		mig := mig
		b.Run(name, func(b *testing.B) {
			var drainPerMig, migs float64
			for i := 0; i < b.N; i++ {
				op := squall.NewOperator(squall.Config{
					J: 16, Pred: squall.EquiJoin("bench", nil), Adaptive: true,
					Warmup: 500, Seed: 11, MigBatchSize: mig,
				})
				op.Start()
				rng := rand.New(rand.NewSource(5))
				// A lopsided stream: R-heavy prefix builds state, then an
				// S flood forces the controller to reshape the grid while
				// ingest continues — migration drains compete with new
				// tuples for every joiner, as in §4.3.2.
				for t := 0; t < 500; t++ {
					op.Send(squall.Tuple{Rel: squall.SideR, Key: rng.Int63n(1 << 18), Size: 8})
				}
				for t := 0; t < 60000; t++ {
					op.Send(squall.Tuple{Rel: squall.SideS, Key: rng.Int63n(1 << 18), Size: 8})
				}
				if err := op.Finish(); err != nil {
					b.Fatal(err)
				}
				// MigrationNanos covers every timed epoch step, so
				// average over migrations and expansions alike (this
				// stream triggers no expansions; the sum keeps the
				// figure honest if the decider's behavior shifts).
				migs = float64(op.Migrations() + op.Metrics().Expansions.Load())
				drainPerMig = 0
				if migs > 0 {
					drainPerMig = float64(op.Metrics().MigrationDrain().Microseconds()) / migs
				}
			}
			b.ReportMetric(drainPerMig, "µs/migration")
			b.ReportMetric(migs, "migrations")
		})
	}
}

// BenchmarkSimProcess measures the deterministic simulator's per-tuple
// cost (the experiment harness hot path).
func BenchmarkSimProcess(b *testing.B) {
	sim := squall.NewSim(squall.SimConfig{J: 64, Adaptive: true, MatchWidth: 0})
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		side := squall.SideR
		if i%3 == 0 {
			side = squall.SideS
		}
		sim.Process(side, rng.Int63n(4096))
	}
}

// BenchmarkLocalEquiAdd measures the local symmetric hash join.
func BenchmarkLocalEquiAdd(b *testing.B) {
	l := join.NewLocal(join.EquiJoin("bench", nil))
	emit, _ := join.CountingEmit()
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel := matrix.SideR
		if i%2 == 1 {
			rel = matrix.SideS
		}
		l.Add(join.Tuple{Rel: rel, Key: rng.Int63n(1 << 16), Size: 8}, emit)
	}
}

// BenchmarkOrderedIndexBandProbe measures the B-tree band index.
func BenchmarkOrderedIndexBandProbe(b *testing.B) {
	idx := join.NewOrderedIndex(5)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100000; i++ {
		idx.Insert(join.Tuple{Rel: matrix.SideS, Key: rng.Int63n(1 << 20)})
	}
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		idx.Probe(join.Tuple{Rel: matrix.SideR, Key: rng.Int63n(1 << 20)}, func(join.Tuple) { n++ })
	}
}

// --- Ablations: ε tradeoff, locality-aware migration, warmup ---

// BenchmarkAblationEpsilon sweeps Alg. 2's ε and reports the
// optimality/communication tradeoff of Theorem 4.2: smaller ε migrates
// more (higher traffic) but tracks the optimum more tightly.
func BenchmarkAblationEpsilon(b *testing.B) {
	for _, eps := range []float64{1.0, 0.5, 0.25} {
		eps := eps
		b.Run(strconv.FormatFloat(eps, 'f', 2, 64), func(b *testing.B) {
			var migrated, worst float64
			var migs int
			for i := 0; i < b.N; i++ {
				sim := squall.NewSim(squall.SimConfig{
					J: 64, Adaptive: true, Epsilon: eps, Warmup: 2000,
					MatchWidth: -1, SampleEvery: 200,
				})
				// Slow drift: the mix leans S-ward then R-ward in long
				// waves, so a finer ε catches the drift earlier.
				for t := 0; t < 200000; t++ {
					if (t/40000)%2 == 0 && t%5 != 0 {
						sim.Process(squall.SideS, 0)
					} else {
						sim.Process(squall.SideR, 0)
					}
				}
				res := sim.Finish()
				migrated = res.Migrated / float64(res.R+res.S)
				migs = res.Migrations
				// Post-warmup worst competitive ratio.
				worst = 1
				series := sim.Ratio.Series()
				for k := 0; k < series.Len(); k++ {
					if x, y := series.At(k); x > 6000 && y > worst {
						worst = y
					}
				}
			}
			b.ReportMetric(migrated, "mig/tuple")
			b.ReportMetric(float64(migs), "migrations")
			b.ReportMetric(worst, "max-ratio")
		})
	}
}

// BenchmarkAblationLocalityAwareMigration compares the locality-aware
// pairwise exchange (Lemma 4.4) against a naive full repartition of
// all state, in migrated tuples per elementary step.
func BenchmarkAblationLocalityAwareMigration(b *testing.B) {
	const j = 64
	var locality, naive float64
	for i := 0; i < b.N; i++ {
		locality, naive = 0, 0
		r, s := int64(500000), int64(500000)
		cur := matrix.Square(j)
		for _, step := range cur.StepsTo(matrix.Mapping{N: 1, M: 64}) {
			tr := matrix.NewTransition(cur, step)
			// Locality-aware: each machine ships only its exchange-side
			// partition to one partner.
			locality += float64(j) * tr.MigrationVolume(float64(r), float64(s))
			// Naive: every machine re-derives its full new state from
			// scratch (ships everything it must hold afterward).
			naive += float64(j) * step.ILF(float64(r), float64(s))
			cur = step
		}
	}
	b.ReportMetric(naive/locality, "naive/locality")
}

// BenchmarkAblationContentSensitiveBand compares the §6 future-work
// prototype (dead-region pruning, content-sensitive) against the
// adaptive grid operator on a uniform low-selectivity band join,
// reporting the per-machine input (ILF) advantage the pruning buys on
// uniform data — the flip side of its skew vulnerability.
func BenchmarkAblationContentSensitiveBand(b *testing.B) {
	const (
		j      = 64
		nTuple = 40000
		domain = 64000
	)
	var bandILF, gridILF float64
	for i := 0; i < b.N; i++ {
		rb := squall.NewRangeBand(squall.RangeBandConfig{
			Workers: j, Buckets: 2 * j, Lo: 0, Hi: domain, Width: 5,
		})
		rb.Start()
		rng := rand.New(rand.NewSource(31))
		for t := 0; t < nTuple; t++ {
			side := squall.SideR
			if t%2 == 1 {
				side = squall.SideS
			}
			rb.Send(squall.Tuple{Rel: side, Key: rng.Int63n(domain), Size: 8})
		}
		if err := rb.Finish(); err != nil {
			b.Fatal(err)
		}
		bandILF = float64(rb.Metrics().MaxILFTuples())

		sim := squall.NewSim(squall.SimConfig{J: j, Adaptive: true, Warmup: nTuple / 100, MatchWidth: -1})
		for t := 0; t < nTuple; t++ {
			side := squall.SideR
			if t%2 == 1 {
				side = squall.SideS
			}
			sim.Process(side, 0)
		}
		gridILF = sim.Finish().MaxILFTuples
	}
	b.ReportMetric(gridILF/bandILF, "grid/band-ILF")
}

// BenchmarkAblationWarmup quantifies the cold-start thrash the warmup
// gate (§5.4) suppresses: without it, the controller chases the first
// few tuples' ratio and migrates needlessly.
func BenchmarkAblationWarmup(b *testing.B) {
	run := func(warmup int64) int {
		sim := squall.NewSim(squall.SimConfig{
			J: 64, Adaptive: true, Warmup: warmup, MatchWidth: -1,
		})
		// A stream whose long-run mix is balanced but whose prefix is
		// one-sided.
		for i := 0; i < 2000; i++ {
			sim.Process(squall.SideR, 0)
		}
		for i := 0; i < 100000; i++ {
			sim.Process(squall.SideS, 0)
			sim.Process(squall.SideR, 0)
		}
		return sim.Finish().Migrations
	}
	var with, without int
	for i := 0; i < b.N; i++ {
		without = run(0)
		with = run(4000)
	}
	b.ReportMetric(float64(without), "migs-no-warmup")
	b.ReportMetric(float64(with), "migs-warmup")
}
