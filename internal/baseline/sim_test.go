package baseline

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// The skew result behind Table 2: under Zipf keys, SHJ's most loaded
// worker takes a large multiple of the mean, while the grid operator
// stays balanced by construction.
func TestSHJSkewImbalance(t *testing.T) {
	imb := func(z float64) float64 {
		sim := NewSHJSim(16, metrics.DefaultCostModel(0), 1)
		rng := rand.New(rand.NewSource(5))
		zipf := tpch.NewZipf(rng, 1000, z)
		for i := 0; i < 100000; i++ {
			side := matrix.SideR
			if i%2 == 1 {
				side = matrix.SideS
			}
			sim.Process(side, int64(zipf.Next()))
		}
		return sim.Imbalance()
	}
	uniform := imb(0)
	skewed := imb(1.0)
	if uniform > 1.6 {
		t.Fatalf("uniform imbalance %.2f too high", uniform)
	}
	if skewed < 2.5 {
		t.Fatalf("skewed imbalance %.2f too low to show the effect", skewed)
	}
}

func TestSHJSimOutputMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sim := NewSHJSim(8, metrics.DefaultCostModel(0), 1)
	rKeys := make(map[int64]int64)
	sKeys := make(map[int64]int64)
	var want float64
	for i := 0; i < 20000; i++ {
		k := rng.Int63n(40)
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
	if res.TotalStorage != 20000 {
		t.Fatalf("storage %v", res.TotalStorage)
	}
}

func TestSHJSimSpill(t *testing.T) {
	sim := NewSHJSim(2, metrics.DefaultCostModel(10), 1)
	for i := 0; i < 1000; i++ {
		sim.Process(matrix.SideR, 1) // all on one worker
	}
	res := sim.Finish()
	if !res.Spilled {
		t.Fatal("expected spill")
	}
	if res.MaxILFTuples != 1000 {
		t.Fatalf("hot worker load %v", res.MaxILFTuples)
	}
}

// StaticMid and StaticOpt are the core operator without adaptivity,
// pinned to the square or the optimal initial mapping.
func TestStaticBaselines(t *testing.T) {
	pred := join.EquiJoin("eq", nil)
	mid, err := core.NewOperator(core.Config{J: 16, Pred: pred})
	if err != nil {
		t.Fatal(err)
	}
	mid.Start()
	for i := 0; i < 100; i++ {
		mid.Send(join.Tuple{Rel: matrix.SideR, Key: int64(i), Size: 8})
		mid.Send(join.Tuple{Rel: matrix.SideS, Key: int64(i), Size: 8})
	}
	if err := mid.Finish(); err != nil {
		t.Fatal(err)
	}
	if mid.DeployedMapping() != (matrix.Mapping{N: 4, M: 4}) {
		t.Fatalf("StaticMid mapping %v", mid.DeployedMapping())
	}

	opt, err := core.NewOperator(core.Config{J: 16, Pred: pred, Initial: matrix.Optimal(16, 10, 10000)})
	if err != nil {
		t.Fatal(err)
	}
	opt.Start()
	if err := opt.Finish(); err != nil {
		t.Fatal(err)
	}
	if opt.DeployedMapping() != (matrix.Mapping{N: 1, M: 16}) {
		t.Fatalf("StaticOpt mapping %v", opt.DeployedMapping())
	}
}

// The hash-partitioned SHJ baseline is the operator's hash route,
// core.NewSHJ; it refuses what it cannot run.
func TestSHJConfigValidation(t *testing.T) {
	for _, cfg := range []core.Config{
		{J: 0, Pred: join.EquiJoin("eq", nil)},
		{J: 4, Pred: join.EquiJoin("eq", nil), Backend: storage.NewMemBackend()},
		{J: 4, Pred: join.EquiJoin("eq", nil), Workers: []string{"127.0.0.1:1"}},
	} {
		if _, err := core.NewSHJ(cfg); err == nil {
			t.Errorf("NewSHJ accepted %+v", cfg)
		}
	}
}

func TestSHJRejectsNonEqui(t *testing.T) {
	if _, err := core.NewSHJ(core.Config{J: 4, Pred: join.BandJoin("b", 1, nil)}); err == nil {
		t.Fatal("NewSHJ accepted a band join")
	}
}
