// Scaling benchmarks of the sharded ingest front end: tuples/sec as a
// function of GOMAXPROCS with one concurrent feeder per core, the PR-6
// trajectory rows in BENCH_PR6.json. Sub-benchmark names use the
// nested j=<J>/procs=<P> form (no dashes) so benchdelta's mode parsing
// survives Go's own -<GOMAXPROCS> suffix convention.
package squall_test

import (
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	squall "repro"
)

// scalingChunk is the SendBatch run length the scaling feeders use —
// large enough to amortize the lane grant and envelope handoff,
// small enough to keep every reshuffler busy.
const scalingChunk = 256

// scalingProcs are the GOMAXPROCS points of the trajectory. On hosts
// with fewer cores the higher points still run (the Go scheduler
// multiplexes), recording honest flat numbers; the CI runners provide
// the multi-core rows.
var scalingProcs = []int{1, 2, 4}

// shardStream splits a pre-built stream round-robin into n feeder
// shards.
func shardStream(tuples []squall.Tuple, n int) [][]squall.Tuple {
	shards := make([][]squall.Tuple, n)
	for i := range shards {
		shards[i] = make([]squall.Tuple, 0, len(tuples)/n+1)
	}
	for i, tp := range tuples {
		shards[i%n] = append(shards[i%n], tp)
	}
	return shards
}

// feedShards runs one concurrent feeder per shard, each delivering its
// shard through SendBatch in scalingChunk-tuple runs.
func feedShards(b *testing.B, op *squall.Operator, shards [][]squall.Tuple) {
	b.Helper()
	var wg sync.WaitGroup
	for _, shard := range shards {
		shard := shard
		wg.Add(1)
		go func() {
			defer wg.Done()
			for start := 0; start < len(shard); start += scalingChunk {
				end := start + scalingChunk
				if end > len(shard) {
					end = len(shard)
				}
				if err := op.SendBatch(shard[start:end]); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkScalingIngest measures ingest-dominated throughput (sparse
// keys, negligible output) across a J x GOMAXPROCS grid with procs
// concurrent feeders and procs source lanes. Each iteration runs a
// fixed 200k-tuple stream through a fresh operator; ns/tuple and
// tuples/s are reported per metric. The reshuffler count follows procs,
// so rows at different procs run different stage sizes.
func BenchmarkScalingIngest(b *testing.B) {
	const nTuples = 200000
	stream := func() []squall.Tuple {
		rng := rand.New(rand.NewSource(61))
		tuples := make([]squall.Tuple, nTuples)
		for i := range tuples {
			side := squall.SideR
			if i%2 == 1 {
				side = squall.SideS
			}
			tuples[i] = squall.Tuple{Rel: side, Key: rng.Int63n(1 << 20), Size: 8}
		}
		return tuples
	}()
	for _, j := range []int{4, 16, 64} {
		j := j
		b.Run("j="+strconv.Itoa(j), func(b *testing.B) {
			for _, procs := range scalingProcs {
				procs := procs
				b.Run("procs="+strconv.Itoa(procs), func(b *testing.B) {
					prev := runtime.GOMAXPROCS(procs)
					defer runtime.GOMAXPROCS(prev)
					shards := shardStream(stream, procs)
					b.ResetTimer()
					for iter := 0; iter < b.N; iter++ {
						var n atomic.Int64
						op := squall.NewOperator(squall.Config{
							J: j, Pred: squall.EquiJoin("scale", nil), Seed: 1,
							SourceLanes: procs,
							EmitBatch:   func(ps []squall.Pair) { n.Add(int64(len(ps))) },
						})
						op.Start()
						feedShards(b, op, shards)
						if err := op.Finish(); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					perIter := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
					b.ReportMetric(perIter/nTuples, "ns/tuple")
					b.ReportMetric(nTuples/(perIter/1e9), "tuples/s")
				})
			}
		})
	}
}

// shardCounter is one shard's pair counter, padded past a cache line
// so concurrent per-shard increments never collide on one.
type shardCounter struct {
	n atomic.Int64
	_ [56]byte
}

// BenchmarkScalingFanout measures the output-dominated regime (small
// key domain, every probe fans out) at J=16 across GOMAXPROCS, with
// the full PR-7 emit plane engaged: procs source lanes on ingest,
// procs emit workers on egress, and a sharded per-core counter sink.
// The reshuffler count follows procs too, so the procs=1 -> procs=4
// ratio compares two configurations, not one on more cores.
func BenchmarkScalingFanout(b *testing.B) {
	const (
		nTuples = 100000
		domain  = 512
	)
	stream := func() []squall.Tuple {
		rng := rand.New(rand.NewSource(62))
		tuples := make([]squall.Tuple, nTuples)
		for i := range tuples {
			side := squall.SideR
			if i%2 == 1 {
				side = squall.SideS
			}
			tuples[i] = squall.Tuple{Rel: side, Key: rng.Int63n(domain), Size: 8}
		}
		return tuples
	}()
	for _, procs := range scalingProcs {
		procs := procs
		b.Run("j=16/procs="+strconv.Itoa(procs), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			shards := shardStream(stream, procs)
			var pairs int64
			b.ResetTimer()
			for iter := 0; iter < b.N; iter++ {
				counters := make([]shardCounter, 16)
				op := squall.NewOperator(squall.Config{
					J: 16, Pred: squall.EquiJoin("scale", nil), Seed: 1,
					SourceLanes: procs,
					EmitWorkers: procs,
					EmitShard: func(shard int, ps []squall.Pair) {
						counters[shard].n.Add(int64(len(ps)))
					},
				})
				op.Start()
				feedShards(b, op, shards)
				if err := op.Finish(); err != nil {
					b.Fatal(err)
				}
				pairs = 0
				for i := range counters {
					pairs += counters[i].n.Load()
				}
			}
			b.StopTimer()
			perIter := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(perIter/nTuples, "ns/tuple")
			b.ReportMetric(nTuples/(perIter/1e9), "tuples/s")
			b.ReportMetric(float64(pairs)/nTuples, "pairs/tuple")
		})
	}
}
