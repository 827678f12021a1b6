package core

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/exact"
	"repro/internal/join"
	"repro/internal/matrix"
)

// The tests in this file cover joiner counts that are not powers of
// two, the counts the paper splits into power-of-two groups (§4.2.2;
// hence the TestGrouped prefix). The grid route runs such a J as
// one grid on the largest power of two J′ ≤ J: the output is the
// reference join, every option applies, and each joiner stores its
// even share of J′.

// roundJ is the joiner count the grid route runs for J.
func roundJ(j int) int {
	r := 1
	for r*2 <= j {
		r *= 2
	}
	return r
}

// TestGroupedExactness: a non-power-of-two J emits exactly the
// reference join on a grid of roundJ(J) joiners.
func TestGroupedExactness(t *testing.T) {
	pred := join.EquiJoin("eq", nil)
	for _, j := range []int{3, 5, 6, 20} {
		rng := rand.New(rand.NewSource(int64(j)))
		tuples := mixedStream(rng, 1500, 1500, 60)
		want := stampedPairs(pred, tuples)
		got, op := runOperator(t, Config{J: j, Pred: pred, Seed: int64(j)}, tuples)
		if n := op.NumJoiners(); n != roundJ(j) {
			t.Fatalf("J=%d runs %d joiners, want %d", j, n, roundJ(j))
		}
		if msg := exact.Diff(got, want); msg != "" {
			t.Fatalf("J=%d: %s", j, msg)
		}
	}
}

// TestGroupedExactnessUnderMigrations: the rounded grid adapts like any
// other. Bursty input forces migrations at every J, and the pair
// multiset, compared by content, equals the oracle's at both batch
// sizes.
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
				want := wantPairs(pred, tuples, contentOf)
				batchCases(t, func(t *testing.T, bs int) {
					op := runContentExact(t, Config{J: j, Pred: pred, Adaptive: true, Seed: seed, BatchSize: bs}, tuples, want)
					if op.Migrations() == 0 {
						t.Fatal("expected migrations under bursty input")
					}
					checkMigrationConserved(t, op.Metrics())
				})
			})
		}
	}
}

func TestGroupedBandJoin(t *testing.T) {
	pred := join.BandJoin("band", 2, nil)
	rng := rand.New(rand.NewSource(31))
	tuples := mixedStream(rng, 1200, 1200, 500)
	want := stampedPairs(pred, tuples)
	got, _ := runOperator(t, Config{J: 6, Pred: pred, Seed: 4}, tuples)
	exact.Equal(t, got, want)
}

// TestGroupedStorageProportional: on the rounded (n,m) grid every R
// tuple is stored once in each of the m joiners of its row and every S
// tuple once in each of the n joiners of its column, and the random
// routing spreads that evenly: no joiner stores more than 1.5 times its
// even share |R|/n + |S|/m.
func TestGroupedStorageProportional(t *testing.T) {
	pred := join.EquiJoin("eq", nil)
	rng := rand.New(rand.NewSource(15))
	const nR, nS = 8000, 8000
	tuples := mixedStream(rng, nR, nS, 1<<20) // sparse keys: few joins
	_, op := runOperator(t, Config{J: 20, Pred: pred, Seed: 2}, tuples)
	mp := op.DeployedMapping()
	if mp.J() != 16 {
		t.Fatalf("J=20 deployed %v, want a 16-joiner grid", mp)
	}
	m := op.Metrics()
	var total int64
	for i := 0; i < m.NumJoiners(); i++ {
		total += m.JoinerStats(i).StoredTuples.Load()
	}
	if want := int64(nR*mp.M + nS*mp.N); total != want {
		t.Fatalf("stored %d tuples in total on %v, want %d", total, mp, want)
	}
	share := float64(nR/mp.N + nS/mp.M)
	for i := 0; i < m.NumJoiners(); i++ {
		if v := m.JoinerStats(i).StoredTuples.Load(); float64(v) > 1.5*share {
			t.Fatalf("joiner %d stores %d tuples, even share %.0f", i, v, share)
		}
	}
}

// TestGroupedPowerOfTwoSingleGroup: a power-of-two J runs as given.
func TestGroupedPowerOfTwoSingleGroup(t *testing.T) {
	pred := join.EquiJoin("eq", nil)
	rng := rand.New(rand.NewSource(3))
	tuples := mixedStream(rng, 800, 800, 40)
	want := stampedPairs(pred, tuples)
	got, op := runOperator(t, Config{J: 8, Pred: pred, Seed: 1}, tuples)
	if n := op.Metrics().NumJoiners(); n != 8 {
		t.Fatalf("J=8 runs %d joiners", n)
	}
	exact.Equal(t, got, want)
}

// TestGroupedPanicsOnBadJ: a J with no power of two below it is an
// error, and no operator is built.
func TestGroupedPanicsOnBadJ(t *testing.T) {
	for _, j := range []int{0, -1} {
		op, err := NewOperator(Config{J: j, Pred: join.EquiJoin("eq", nil)})
		if err == nil {
			t.Fatalf("NewOperator accepted J=%d", j)
		}
		if op != nil {
			t.Fatalf("NewOperator returned an operator with error %v", err)
		}
	}
}

// TestGroupedOutputDistribution: the probability that a specific joiner
// evaluates a given pair is 1/J′, so the output of J=12's 8 joiners is
// roughly uniform, and no shard id reaches past them.
func TestGroupedOutputDistribution(t *testing.T) {
	pred := join.EquiJoin("eq", nil)
	rng := rand.New(rand.NewSource(8))
	tuples := mixedStream(rng, 4000, 4000, 10) // dense keys: many joins
	rec := newShardRecorder(8)
	var badShard atomic.Int64
	op := mustOperator(t, Config{J: 12, Pred: pred, Seed: 21, EmitShard: func(shard int, ps []join.Pair) {
		if shard < 0 || shard >= 8 {
			badShard.Store(int64(shard) + 1)
			return
		}
		rec.emit(shard, ps)
	}})
	op.Start()
	for _, tp := range tuples {
		op.Send(tp)
	}
	if err := op.Finish(); err != nil {
		t.Fatal(err)
	}
	if s := badShard.Load(); s != 0 {
		t.Fatalf("pairs emitted on shard %d of an 8-joiner grid", s-1)
	}
	exact.Equal(t, rec.all(), stampedPairs(pred, tuples))
	m := op.Metrics()
	if m.NumJoiners() != 8 {
		t.Fatalf("J=12 runs %d joiners, want 8", m.NumJoiners())
	}
	var sum int64
	for i := 0; i < m.NumJoiners(); i++ {
		sum += m.JoinerStats(i).OutputPairs.Load()
	}
	mean := float64(sum) / float64(m.NumJoiners())
	for i := 0; i < m.NumJoiners(); i++ {
		if v := m.JoinerStats(i).OutputPairs.Load(); float64(v) > 3*mean {
			t.Fatalf("joiner %d output %d vs mean %.0f: unbalanced", i, v, mean)
		}
	}
}
