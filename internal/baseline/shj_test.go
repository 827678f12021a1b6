package baseline

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/tpch"
)

func refCount(p join.Predicate, tuples []join.Tuple) int64 {
	var rs, ss []join.Tuple
	for _, t := range tuples {
		if t.Rel == matrix.SideR {
			rs = append(rs, t)
		} else {
			ss = append(ss, t)
		}
	}
	var n int64
	for _, r := range rs {
		for _, s := range ss {
			if p.Matches(r, s) {
				n++
			}
		}
	}
	return n
}

func TestSHJExactEquiJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pred := join.EquiJoin("eq", nil)
	var tuples []join.Tuple
	for i := 0; i < 3000; i++ {
		tuples = append(tuples, join.Tuple{Rel: matrix.SideR, Key: rng.Int63n(60), Size: 8})
		tuples = append(tuples, join.Tuple{Rel: matrix.SideS, Key: rng.Int63n(60), Size: 8})
	}
	want := refCount(pred, tuples)
	var n atomic.Int64
	shj, err := NewSHJ(core.Config{J: 7, Pred: pred, EmitBatch: func(ps []join.Pair) { n.Add(int64(len(ps))) }})
	if err != nil {
		t.Fatal(err)
	}
	shj.Start()
	for _, tp := range tuples {
		shj.Send(tp)
	}
	if err := shj.Finish(); err != nil {
		t.Fatalf("shj: %v", err)
	}
	if n.Load() != want {
		t.Fatalf("emitted %d, reference %d", n.Load(), want)
	}
	// No replication: total input equals total sent.
	if got := shj.Metrics().TotalInputTuples(); got != int64(len(tuples)) {
		t.Fatalf("input %d, sent %d", got, len(tuples))
	}
}

func TestSHJRejectsNonEqui(t *testing.T) {
	if _, err := NewSHJ(core.Config{J: 4, Pred: join.BandJoin("b", 1, nil)}); err == nil {
		t.Fatal("NewSHJ accepted a band join")
	}
}

func TestSHJPartitionIsDeterministicAndSpread(t *testing.T) {
	shj, err := NewSHJ(core.Config{J: 16, Pred: join.EquiJoin("eq", nil)})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for k := int64(0); k < 1000; k++ {
		p := shj.Partition(k)
		if p != shj.Partition(k) {
			t.Fatal("partition not deterministic")
		}
		if p < 0 || p >= 16 {
			t.Fatalf("partition %d out of range", p)
		}
		seen[p] = true
	}
	if len(seen) != 16 {
		t.Fatalf("only %d of 16 partitions used", len(seen))
	}
}

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

func TestSHJConfigValidation(t *testing.T) {
	for _, cfg := range []core.Config{
		{J: 0, Pred: join.EquiJoin("eq", nil)},
		{J: 4, Pred: join.EquiJoin("eq", nil), Backend: storage.NewMemBackend()},
		{J: 4, Pred: join.EquiJoin("eq", nil), Workers: []string{"127.0.0.1:1"}},
	} {
		if _, err := NewSHJ(cfg); err == nil {
			t.Errorf("NewSHJ accepted %+v", cfg)
		}
	}
}
