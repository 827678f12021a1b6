package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/storage"
)

// shjInput is an interleaved equi-join stream over keys 0..keys-1 whose
// Aux is each tuple's position, so a pair is identified by content
// whatever sequence numbers the feeders draw.
func shjInput(seed int64, n int, keys int64) []join.Tuple {
	rng := rand.New(rand.NewSource(seed))
	out := make([]join.Tuple, n)
	for i := range out {
		out[i] = join.Tuple{Rel: matrix.Side(i % 2), Key: rng.Int63n(keys), Aux: int64(i), Size: 8}
	}
	return out
}

func auxKey(p join.Pair) [2]int64 { return [2]int64{p.R.Aux, p.S.Aux} }

// mustSHJ is NewSHJ for a configuration the test knows is valid.
func mustSHJ(t testing.TB, cfg Config) *Operator {
	t.Helper()
	op, err := NewSHJ(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// TestSHJExactEquiJoin: the hash route emits exactly the nested loop's
// pair multiset, at J = 1, a non-power-of-two J and a grid-sized J, fed
// per tuple or in batches, on the per-message and the batched plane —
// and, storing each tuple once, its joiners see exactly the tuples
// sent.
func TestSHJExactEquiJoin(t *testing.T) {
	pred := join.EquiJoin("eq", nil)
	tuples := shjInput(1, 6000, 60)
	want := refMultiset(pred, tuples, auxKey)
	for _, j := range []int{1, 7, 16} {
		for _, batch := range []int{1, 0} {
			for _, feed := range []string{"Send", "SendBatch"} {
				t.Run(fmt.Sprintf("J=%d/batch=%d/%s", j, batch, feed), func(t *testing.T) {
					var mu sync.Mutex
					got := make(map[[2]int64]int)
					op := mustSHJ(t, Config{J: j, Pred: pred, BatchSize: batch, EmitBatch: func(ps []join.Pair) {
						mu.Lock()
						for _, p := range ps {
							got[auxKey(p)]++
						}
						mu.Unlock()
					}})
					op.Start()
					if feed == "Send" {
						for _, tp := range tuples {
							if err := op.Send(tp); err != nil {
								t.Fatal(err)
							}
						}
					} else {
						for i := 0; i < len(tuples); i += 100 {
							if err := op.SendBatch(tuples[i : i+100]); err != nil {
								t.Fatal(err)
							}
						}
					}
					if err := op.Finish(); err != nil {
						t.Fatal(err)
					}
					diffMultisets(t, got, want)
					if in := op.Metrics().TotalInputTuples(); in != int64(len(tuples)) {
						t.Fatalf("joiners took %d tuples, %d sent: the hash route replicated", in, len(tuples))
					}
				})
			}
		}
	}
}

// TestSHJShardIsKeyHash: with a sharded sink, every pair is emitted on
// the shard of the joiner its key hashes to.
func TestSHJShardIsKeyHash(t *testing.T) {
	const j = 7
	rec := newShardRecorder(j)
	op := mustSHJ(t, Config{J: j, Pred: join.EquiJoin("eq", nil), EmitShard: rec.emit})
	op.Start()
	tuples := shjInput(2, 4000, 40)
	if err := op.SendBatch(tuples); err != nil {
		t.Fatal(err)
	}
	if err := op.Finish(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for shard, ps := range rec.pairs {
		for _, p := range ps {
			if want := int(join.UMix(0, uint64(p.R.Key)) % j); shard != want {
				t.Fatalf("key %d emitted on shard %d, hashes to %d", p.R.Key, shard, want)
			}
		}
		total += len(ps)
	}
	if want := len(refMultiset(join.EquiJoin("eq", nil), tuples, auxKey)); total != want {
		t.Fatalf("%d pairs emitted, oracle %d", total, want)
	}
}

// TestSHJInputIsKeyHashHistogram: each joiner's input is exactly the
// tuples whose key hashes to it, and a spread of keys reaches every
// joiner.
func TestSHJInputIsKeyHashHistogram(t *testing.T) {
	const j = 16
	op := mustSHJ(t, Config{J: j, Pred: join.EquiJoin("eq", nil)})
	op.Start()
	want := make([]int64, j)
	for k := int64(0); k < 1000; k++ {
		want[join.UMix(0, uint64(k))%j] += 2
		for _, side := range [2]matrix.Side{matrix.SideR, matrix.SideS} {
			if err := op.Send(join.Tuple{Rel: side, Key: k, Size: 8}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := op.Finish(); err != nil {
		t.Fatal(err)
	}
	m := op.Metrics()
	for w := 0; w < j; w++ {
		if got := m.JoinerStats(w).InputTuples.Load(); got != want[w] || got == 0 {
			t.Fatalf("joiner %d took %d tuples, its keys' histogram says %d", w, got, want[w])
		}
	}
}

// TestSHJConfigValidation: NewSHJ rejects what the hash route cannot
// run — no joiners, checkpointing, remote workers, a non-equi
// predicate — and takes any positive J.
func TestSHJConfigValidation(t *testing.T) {
	eq := join.EquiJoin("eq", nil)
	for _, cfg := range []Config{
		{J: 0, Pred: eq},
		{J: 4, Pred: eq, Backend: storage.NewMemBackend()},
		{J: 4, Pred: eq, Workers: []string{"127.0.0.1:1"}},
		{J: 4, Pred: join.BandJoin("b", 1, nil)},
	} {
		if _, err := NewSHJ(cfg); err == nil {
			t.Errorf("NewSHJ accepted %+v", cfg)
		}
	}
	op := mustSHJ(t, Config{J: 7, Pred: eq, Adaptive: true, MaxTuplesPerJoiner: 10, PadDummies: true})
	if got := op.DeployedMapping(); got != (matrix.Mapping{N: 1, M: 7}) {
		t.Fatalf("hash route mapping %v, want (1,7)", got)
	}
	if op.cfg.Adaptive || op.cfg.MaxTuplesPerJoiner != 0 || op.cfg.PadDummies {
		t.Fatalf("grid-only knobs survived validation: %+v", op.cfg)
	}
}
