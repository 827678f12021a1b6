package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/metrics"
)

func TestSimStaticILFMatchesFormula(t *testing.T) {
	sim := NewSim(SimConfig{J: 64, Initial: matrix.Mapping{N: 8, M: 8}, MatchWidth: -1})
	for i := 0; i < 1000; i++ {
		sim.Process(matrix.SideR, 0)
	}
	for i := 0; i < 64000; i++ {
		sim.Process(matrix.SideS, 0)
	}
	res := sim.Finish()
	// (8,8) over (1000, 64000): ILF = 1000/8 + 64000/8 = 8125.
	if res.MaxILFTuples != 8125 {
		t.Fatalf("ILF=%v, want 8125", res.MaxILFTuples)
	}
	if res.Migrations != 0 || res.Final != (matrix.Mapping{N: 8, M: 8}) {
		t.Fatalf("static sim migrated: %+v", res)
	}
}

func TestSimAdaptiveConvergesAndBeatsStatic(t *testing.T) {
	mk := func(adaptive bool) Result {
		sim := NewSim(SimConfig{J: 64, Adaptive: adaptive, Warmup: 2000, MatchWidth: -1})
		for i := 0; i < 1000; i++ {
			sim.Process(matrix.SideR, 0)
		}
		for i := 0; i < 64000; i++ {
			sim.Process(matrix.SideS, 0)
		}
		return sim.Finish()
	}
	static := mk(false)
	dyn := mk(true)
	if dyn.Final != (matrix.Mapping{N: 1, M: 64}) {
		t.Fatalf("adaptive sim final mapping %v", dyn.Final)
	}
	if dyn.MaxILFTuples >= static.MaxILFTuples {
		t.Fatalf("adaptive ILF %v not better than static %v", dyn.MaxILFTuples, static.MaxILFTuples)
	}
	if dyn.Migrations == 0 || dyn.Migrated == 0 {
		t.Fatalf("no migrations recorded: %+v", dyn)
	}
}

// Fig. 8c's property: under fluctuation the deployed-vs-optimal ILF
// ratio never exceeds 1.25 once adaptation is active.
func TestSimCompetitiveRatioUnderFluctuation(t *testing.T) {
	for _, k := range []int64{2, 4, 8} {
		sim := NewSim(SimConfig{J: 64, Adaptive: true, Warmup: 5000, MatchWidth: -1, SampleEvery: 100})
		// Alternate until one side is k times the other, then swap.
		var r, s int64
		side := matrix.SideR
		for t := 0; t < 300000; t++ {
			if side == matrix.SideR {
				sim.Process(matrix.SideR, 0)
				r++
				if r > k*s {
					side = matrix.SideS
				}
			} else {
				sim.Process(matrix.SideS, 0)
				s++
				if s > k*r {
					side = matrix.SideR
				}
			}
		}
		res := sim.Finish()
		// Discard the warmup prefix: before adaptation starts, the
		// static square mapping may be arbitrarily suboptimal.
		series := sim.Ratio.Series()
		worst := 1.0
		for i := 0; i < series.Len(); i++ {
			x, y := series.At(i)
			if x < 6000 {
				continue
			}
			if y > worst {
				worst = y
			}
		}
		if worst > 1.25+1e-9 {
			t.Fatalf("k=%d: post-warmup ratio %.4f exceeds 1.25", k, worst)
		}
		// At k=2 the square mapping ties the optimum over the whole
		// ratio range [1/2, 2], so no migration is ever warranted;
		// larger fluctuations must trigger repeated migrations.
		if k >= 4 && res.Migrations < 3 {
			t.Fatalf("k=%d: only %d migrations under fluctuation", k, res.Migrations)
		}
	}
}

// Amortized migration cost (Lemma 4.5): migration traffic stays a
// constant fraction of routed traffic over long fluctuating streams.
func TestSimAmortizedMigrationTraffic(t *testing.T) {
	sim := NewSim(SimConfig{J: 16, Adaptive: true, Warmup: 1000, MatchWidth: -1})
	for i := 0; i < 400000; i++ {
		if (i/50000)%2 == 0 {
			sim.Process(matrix.SideR, 0)
		} else {
			sim.Process(matrix.SideS, 0)
		}
	}
	res := sim.Finish()
	perTuple := res.Migrated / float64(res.R+res.S)
	if perTuple > 8 {
		t.Fatalf("migration traffic %.3f tuples/tuple not amortized constant", perTuple)
	}
}

func TestSimOutputCountingEqui(t *testing.T) {
	sim := NewSim(SimConfig{J: 4, MatchWidth: 0})
	rng := rand.New(rand.NewSource(3))
	rKeys := make(map[int64]int64)
	sKeys := make(map[int64]int64)
	var want float64
	for i := 0; i < 5000; i++ {
		k := rng.Int63n(50)
		if i%2 == 0 {
			want += float64(sKeys[k])
			rKeys[k]++
			sim.Process(matrix.SideR, k)
		} else {
			want += float64(rKeys[k])
			sKeys[k]++
			sim.Process(matrix.SideS, k)
		}
	}
	res := sim.Finish()
	if res.OutputPairs != want {
		t.Fatalf("output %v, want %v", res.OutputPairs, want)
	}
}

func TestSimOutputCountingBand(t *testing.T) {
	sim := NewSim(SimConfig{J: 4, MatchWidth: 1, ResidualSelectivity: 0.5})
	sim.Process(matrix.SideR, 10)
	sim.Process(matrix.SideS, 11) // matches r(10) at width 1
	sim.Process(matrix.SideS, 12) // no match
	sim.Process(matrix.SideR, 12) // matches s(11) and s(12)
	res := sim.Finish()
	if res.OutputPairs != 0.5*3 {
		t.Fatalf("output %v, want 1.5", res.OutputPairs)
	}
}

// TestSimBandAtInt64Extremes: a band sweep around a key at
// math.MaxInt64 or math.MinInt64 saturates its range and stops at its
// end instead of wrapping (k++ past MaxInt64 would never end), and
// counts the exact matches there.
func TestSimBandAtInt64Extremes(t *testing.T) {
	done := make(chan float64)
	go func() {
		sim := NewSim(SimConfig{J: 4, MatchWidth: 2})
		sim.Process(matrix.SideR, math.MaxInt64)
		sim.Process(matrix.SideR, math.MaxInt64-2)
		sim.Process(matrix.SideR, math.MaxInt64-3)
		sim.Process(matrix.SideS, math.MaxInt64) // r(Max), r(Max-2)
		sim.Process(matrix.SideR, math.MinInt64)
		sim.Process(matrix.SideS, math.MinInt64+1) // r(Min)
		sim.Process(matrix.SideS, math.MinInt64)   // r(Min)
		sim.Process(matrix.SideR, math.MinInt64+3) // s(Min+1)
		done <- sim.Finish().OutputPairs
	}()
	select {
	case got := <-done:
		if got != 5 {
			t.Fatalf("output %v at the int64 extremes, want 5", got)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Process did not return: the band sweep wrapped at an int64 bound")
	}
}

func TestSimSpillPenalty(t *testing.T) {
	costNoCap := metrics.DefaultCostModel(0)
	costCap := metrics.DefaultCostModel(100)
	run := func(c metrics.CostModel) Result {
		sim := NewSim(SimConfig{J: 4, MatchWidth: -1, Cost: c})
		for i := 0; i < 4000; i++ {
			sim.Process(matrix.SideS, 0)
		}
		return sim.Finish()
	}
	fit := run(costNoCap)
	spill := run(costCap)
	if !spill.Spilled || fit.Spilled {
		t.Fatalf("spill flags wrong: %v %v", fit.Spilled, spill.Spilled)
	}
	if spill.Makespan < 5*fit.Makespan {
		t.Fatalf("spill makespan %v not far above in-memory %v", spill.Makespan, fit.Makespan)
	}
	if spill.Throughput >= fit.Throughput {
		t.Fatal("spill should reduce throughput")
	}
}

func TestSimElasticExpansion(t *testing.T) {
	sim := NewSim(SimConfig{J: 4, Adaptive: true, Warmup: 100, MatchWidth: -1, MaxPerJoiner: 500})
	for i := 0; i < 10000; i++ {
		sim.Process(matrix.SideR, 0)
		sim.Process(matrix.SideS, 0)
	}
	res := sim.Finish()
	if res.Expansions == 0 || res.J <= 4 {
		t.Fatalf("no expansion: %+v", res)
	}
	// Per-joiner load must stay near the cap despite the growing input.
	if res.MaxILFTuples > 4*500 {
		t.Fatalf("per-joiner ILF %v grew unboundedly despite elasticity", res.MaxILFTuples)
	}
}

func TestSimSeriesRecorded(t *testing.T) {
	sim := NewSim(SimConfig{J: 16, Adaptive: true, MatchWidth: -1, SampleEvery: 50})
	for i := 0; i < 2000; i++ {
		sim.Process(matrix.SideS, 0)
	}
	sim.Finish()
	if sim.ILFSeries.Len() < 10 || sim.TimeSeries.Len() < 10 {
		t.Fatalf("series too short: %d %d", sim.ILFSeries.Len(), sim.TimeSeries.Len())
	}
	// Cumulative work must be monotone.
	last := -1.0
	for i := 0; i < sim.TimeSeries.Len(); i++ {
		_, y := sim.TimeSeries.At(i)
		if y < last {
			t.Fatal("work series not monotone")
		}
		last = y
	}
}

// Cross-validation: the deterministic Sim and the concurrent Operator
// must agree on migration count and final mapping for the same stream.
func TestSimMatchesOperatorShape(t *testing.T) {
	const warmup = 1000
	sim := NewSim(SimConfig{J: 16, Adaptive: true, Warmup: warmup, MatchWidth: -1})
	for i := 0; i < 500; i++ {
		sim.Process(matrix.SideR, int64(i))
	}
	for i := 0; i < 20000; i++ {
		sim.Process(matrix.SideS, int64(i))
	}
	res := sim.Finish()
	if res.Final != (matrix.Mapping{N: 1, M: 16}) {
		t.Fatalf("sim final %v", res.Final)
	}
}
