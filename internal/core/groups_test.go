package core

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/join"
	"repro/internal/matrix"
)

func TestDecompose(t *testing.T) {
	cases := map[int][]int{
		1:  {1},
		2:  {2},
		3:  {2, 1},
		5:  {4, 1},
		20: {16, 4},
		22: {16, 4, 2},
		64: {64},
		7:  {4, 2, 1},
	}
	for j, want := range cases {
		got := Decompose(j)
		if len(got) != len(want) {
			t.Fatalf("Decompose(%d) = %v, want %v", j, got, want)
		}
		sum := 0
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Decompose(%d) = %v, want %v", j, got, want)
			}
			sum += got[i]
		}
		if sum != j {
			t.Fatalf("Decompose(%d) sums to %d", j, sum)
		}
	}
}

func TestDecomposePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Decompose(0)
}

func runGrouped(t *testing.T, cfg Config, tuples []join.Tuple) (int64, *Grouped) {
	t.Helper()
	var n atomic.Int64
	cfg.EmitBatch = counter(&n)
	gr := mustGrouped(t, cfg)
	gr.Start()
	for _, tp := range tuples {
		gr.Send(tp)
	}
	if err := gr.Finish(); err != nil {
		t.Fatalf("grouped operator: %v", err)
	}
	return n.Load(), gr
}

// Cross-group exactly-once: for non-power-of-two machine counts the
// output must still be exactly the reference join — every pair joined
// in the storing group of its earlier tuple, nowhere else.
func TestGroupedExactness(t *testing.T) {
	pred := join.EquiJoin("eq", nil)
	for _, j := range []int{3, 5, 6, 20} {
		j := j
		rng := rand.New(rand.NewSource(int64(j)))
		tuples := mixedStream(rng, 1500, 1500, 60)
		want := refCount(pred, tuples)
		got, gr := runGrouped(t, Config{J: j, Pred: pred, Seed: int64(j)}, tuples)
		if got != want {
			t.Fatalf("J=%d (groups %v): emitted %d, reference %d", j, gr.Groups(), got, want)
		}
	}
}

// The hard case: per-group adaptive migrations while probe-only
// cross-group traffic is in flight. Pairs are compared by content, not
// counted. A probe-only ∆ forward ships as a kMigBlocks message with
// probeOnly set; -coverprofile runs on 2 CPUs show these J × seed cases
// executing that branch of onMigBlocks (30–98 times per run, J=20 the
// most), but at GOMAXPROCS=1 some runs miss it, since it needs a joiner
// to enter a migration before its own signal.
// TestProbeOnlyForwardShipsAsBlocks drives the branch deterministically.
func TestGroupedExactnessUnderMigrations(t *testing.T) {
	pred := join.EquiJoin("eq", nil)
	for _, j := range []int{6, 12, 20} {
		for _, seed := range []int64{9, 10, 11} {
			t.Run(fmt.Sprintf("J=%d/seed=%d", j, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(68 + seed))
				var tuples []join.Tuple
				for burst := 0; burst < 4; burst++ {
					side := matrix.SideR
					if burst%2 == 1 {
						side = matrix.SideS
					}
					for i := 0; i < 2000; i++ {
						tuples = append(tuples, join.Tuple{Rel: side, Key: rng.Int63n(200), Size: 8})
					}
				}
				withContent(rng, tuples)
				want := refMultiset(pred, tuples, contentOf)
				batchCases(t, func(t *testing.T, bs int) {
					emit, got := contentSink()
					gr := mustGrouped(t, Config{J: j, Pred: pred, Adaptive: true, Seed: seed, EmitBatch: emit})
					for _, op := range gr.groups {
						op.cfg.BatchSize = bs // NewGrouped keeps the group default; reshufflers read it at Start
					}
					gr.Start()
					for _, tp := range tuples {
						if err := gr.Send(tp); err != nil {
							t.Fatal(err)
						}
					}
					if err := gr.Finish(); err != nil {
						t.Fatalf("grouped operator: %v", err)
					}
					diffMultisets(t, got, want)
					if gr.Migrations() == 0 {
						t.Fatal("expected per-group migrations under bursty input")
					}
					checkMigrationConserved(t, gr.Metrics())
				})
			})
		}
	}
}

func TestGroupedBandJoin(t *testing.T) {
	pred := join.BandJoin("band", 2, nil)
	rng := rand.New(rand.NewSource(31))
	tuples := mixedStream(rng, 1200, 1200, 500)
	want := refCount(pred, tuples)
	got, _ := runGrouped(t, Config{J: 6, Pred: pred, Seed: 4}, tuples)
	if got != want {
		t.Fatalf("emitted %d, reference %d", got, want)
	}
}

// Storage must distribute across groups proportionally to group size
// (P(group i) = J_i / J), and every tuple must be stored exactly once.
func TestGroupedStorageProportional(t *testing.T) {
	pred := join.EquiJoin("eq", nil)
	rng := rand.New(rand.NewSource(15))
	tuples := mixedStream(rng, 8000, 8000, 1<<20) // sparse keys: few joins
	_, gr := runGrouped(t, Config{J: 20, Pred: pred, Seed: 2}, tuples)
	stored := gr.StoredTuples()
	var total int64
	for _, v := range stored {
		total = total + v
	}
	// Grid storage replicates each stored tuple across one row or
	// column of its group; expected copies of a tuple stored in group
	// of size Jg under mapping (n,m) is m (R) or n (S). We check the
	// group proportions via per-group unique storage estimates, so
	// just validate the ratio of the two groups' loads ~ 16/4 within
	// replication-factor noise.
	if len(stored) != 2 {
		t.Fatalf("groups %v", gr.Groups())
	}
	ratio := float64(stored[0]) / float64(stored[1])
	if ratio < 2 || ratio > 9 {
		t.Fatalf("storage ratio %v (stored %v), want near 4 (=16/4)", ratio, stored)
	}
	if total == 0 {
		t.Fatal("nothing stored")
	}
}

func TestGroupedPowerOfTwoSingleGroup(t *testing.T) {
	pred := join.EquiJoin("eq", nil)
	rng := rand.New(rand.NewSource(3))
	tuples := mixedStream(rng, 800, 800, 40)
	want := refCount(pred, tuples)
	got, gr := runGrouped(t, Config{J: 8, Pred: pred, Seed: 1}, tuples)
	if len(gr.Groups()) != 1 {
		t.Fatalf("groups %v", gr.Groups())
	}
	if got != want {
		t.Fatalf("emitted %d, reference %d", got, want)
	}
}

// TestGroupedPanicsOnBadJ keeps its name from when NewGrouped panicked;
// a bad J is now reported as an error, and no operator is built.
func TestGroupedPanicsOnBadJ(t *testing.T) {
	gr, err := NewGrouped(Config{J: 0, Pred: join.EquiJoin("eq", nil)})
	if err == nil {
		t.Fatal("NewGrouped accepted J=0")
	}
	if gr != nil {
		t.Fatalf("NewGrouped returned an operator with error %v", err)
	}
}

// Work distribution (§4.2.2): the probability that a specific joiner
// evaluates a given pair is 1/J; aggregate output across joiners
// should therefore be roughly uniform.
func TestGroupedOutputDistribution(t *testing.T) {
	pred := join.EquiJoin("eq", nil)
	rng := rand.New(rand.NewSource(8))
	tuples := mixedStream(rng, 4000, 4000, 10) // dense keys: many joins
	var n atomic.Int64
	gr := mustGrouped(t, Config{J: 12, Pred: pred, Seed: 21, EmitBatch: counter(&n)})
	gr.Start()
	for _, tp := range tuples {
		gr.Send(tp)
	}
	if err := gr.Finish(); err != nil {
		t.Fatal(err)
	}
	want := refCount(pred, tuples)
	if n.Load() != want {
		t.Fatalf("emitted %d, reference %d", n.Load(), want)
	}
	// Max per-joiner output should be within a small factor of the
	// mean across all 12 joiners.
	var outs []int64
	var sum int64
	for _, op := range gr.groups {
		m := op.Metrics()
		for i := 0; i < m.NumJoiners(); i++ {
			v := m.JoinerStats(i).OutputPairs.Load()
			outs = append(outs, v)
			sum += v
		}
	}
	mean := float64(sum) / float64(len(outs))
	for i, v := range outs {
		if float64(v) > 3*mean {
			t.Fatalf("joiner %d output %d vs mean %.0f: unbalanced", i, v, mean)
		}
	}
}
