// Benchmarks of the simulator and the ablations of three design
// choices: Alg. 2's ε tradeoff, locality-aware migration, and the
// adaptation warmup. They measure claims about core.Sim and the (n,m) matrix that no other tool
// reports. The live operator's numbers come from bench/ (BENCHMARK.json;
// `go run ./bench`), and the paper's tables and figures from
// `go run ./cmd/squallbench`.
//
// Run with `go test -bench . -run '^$' .`; each benchmark reports its
// headline quantity via b.ReportMetric.
package squall_test

import (
	"math/rand"
	"strconv"
	"testing"

	squall "repro"
	"repro/internal/matrix"
)

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
