package core

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/exact"
	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/metrics"
)

// keySink is an EmitBatch appending each emitted pair's key to *got,
// which starts with capacity n, under a lock: safe for the concurrent
// calls of several joiners.
func keySink[K any](key func(r, s *join.Tuple) K, n int) (join.EmitBatch, *[]K) {
	var mu sync.Mutex
	got := new([]K)
	*got = make([]K, 0, n)
	return func(ps []join.Pair) {
		mu.Lock()
		for i := range ps {
			*got = append(*got, key(&ps[i].R, &ps[i].S))
		}
		mu.Unlock()
	}, got
}

// runKeyed pushes tuples through an operator built from cfg by one
// feeder — a Send loop, or one SendBatch when batch is set — and
// returns the emitted pairs as key gives them, collected by keySink
// with capacity n.
func runKeyed[K any](t *testing.T, cfg Config, tuples []join.Tuple, key func(r, s *join.Tuple) K, n int, batch bool) ([]K, *Operator) {
	t.Helper()
	var got *[]K
	cfg.EmitBatch, got = keySink(key, n)
	op := mustOperator(t, cfg)
	op.Start()
	if batch {
		if err := op.SendBatch(tuples); err != nil {
			t.Fatal(err)
		}
	} else {
		sendAll(t, op, tuples)
	}
	if err := op.Finish(); err != nil {
		t.Fatalf("operator error: %v", err)
	}
	return *got, op
}

// runOperator returns the pairs a Send loop emits, keyed by member
// seqs, for stampedPairs.
func runOperator(t *testing.T, cfg Config, tuples []join.Tuple) ([][2]uint64, *Operator) {
	t.Helper()
	return runKeyed(t, cfg, tuples, ckptKey, 0, false)
}

// pairContent identifies one result pair by its members' seqs and by
// the columns a state codec could drop without changing any count: Aux
// and the payload bytes (hashed), in that order, R's before S's.
type pairContent [6]uint64

// payloadSeed seeds the payload hash: one per test binary, so the
// oracle's keys and the emitted ones hash alike.
var payloadSeed = maphash.MakeSeed()

func payloadHash(b []byte) uint64 { return maphash.Bytes(payloadSeed, b) }

func contentOf(r, s *join.Tuple) pairContent {
	return pairContent{r.Seq, s.Seq, uint64(r.Aux), uint64(s.Aux), payloadHash(r.Payload), payloadHash(s.Payload)}
}

// withContent gives every tuple a random Aux and a 0–32-byte payload,
// then stamps the seqs a single-feeder Send assigns, so the oracle and
// the engine agree on pair identity.
func withContent(rng *rand.Rand, tuples []join.Tuple) {
	for i := range tuples {
		tuples[i].Aux = rng.Int63()
		tuples[i].Payload = make([]byte, rng.Intn(33))
		rng.Read(tuples[i].Payload)
	}
	stampSeqs(tuples, 0)
}

// runContentExact runs tuples through a Send loop and fails t unless
// the emitted pairs, by content, are exactly want.
func runContentExact(t *testing.T, cfg Config, tuples []join.Tuple, want []pairContent) *Operator {
	t.Helper()
	got, op := runKeyed(t, cfg, tuples, contentOf, len(want), false)
	exact.Equal(t, got, want)
	return op
}

// runContentBatchExact is runContentExact feeding the stream in one
// SendBatch, so envelopes fill to their size before any flush.
func runContentBatchExact(t *testing.T, cfg Config, tuples []join.Tuple, want []pairContent) *Operator {
	t.Helper()
	got, op := runKeyed(t, cfg, tuples, contentOf, len(want), true)
	exact.Equal(t, got, want)
	return op
}

// checkMigrationConserved asserts that migration moved stored state
// without losing or duplicating any: every tuple some joiner shipped
// out, another installed.
func checkMigrationConserved(t *testing.T, m *metrics.Operator) {
	t.Helper()
	var out, in int64
	for j := 0; j < m.NumJoiners(); j++ {
		out += m.JoinerStats(j).MigratedOut.Load()
		in += m.JoinerStats(j).MigratedIn.Load()
	}
	if out != in {
		t.Fatalf("migrated out %d tuples, installed %d", out, in)
	}
}

func mixedStream(rng *rand.Rand, nR, nS int, keys int64) []join.Tuple {
	var out []join.Tuple
	for i := 0; i < nR || i < nS; i++ {
		if i < nR {
			out = append(out, join.Tuple{Rel: matrix.SideR, Key: rng.Int63n(keys), Aux: rng.Int63n(100), Size: 8})
		}
		if i < nS {
			out = append(out, join.Tuple{Rel: matrix.SideS, Key: rng.Int63n(keys), Aux: rng.Int63n(100), Size: 8})
		}
	}
	return out
}

// TestJoinerFootprintGauges checks the resident-bytes gauges joiners
// publish with their stored-state counters: after a static run on a
// (4,4) grid every joiner reports the arena blocks and directories
// behind what it stores. On the equi grid the joiners of a row
// (column) view one copy of its tuples' columns and read the line's one
// slot index over them, so a stored replica costs at least its share of
// the columns and chain links, 28/4 bytes (a row's key, aux and seq
// columns, 24 B, its block deriving u and meta, and its 4-byte chain
// link), and a share of the line's directory below the 8 bytes a single
// slot costs: a joiner that builds its own directory again (16.8 B per
// replica at this load) fails. The operator-wide figure must stay below
// the 28 bytes a private copy's columns and chain link would take
// alone. On the band grid the joiners
// of a line read the line's one tree, charged once per line: a replica
// costs at least a quarter of the 40 leaf bytes a row takes, a share of
// the inner nodes below 8 bytes, and less in all than the 40 bytes of
// a private tree's leaf columns. It runs two reshufflers at any
// GOMAXPROCS.
func TestJoinerFootprintGauges(t *testing.T) {
	const m = 4 // every R tuple is stored by the m joiners of its row (and S by n = m)
	for _, tc := range []struct {
		name  string
		pred  join.Predicate
		whole float64 // bytes per row of a private copy's columns
	}{
		{"equi", join.EquiJoin("eq", nil), 28},
		{"band", join.BandJoin("band", 8, nil), 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			_, op := runOperator(t, Config{J: 16, Pred: tc.pred, Seed: 7, NumReshufflers: 2}, mixedStream(rng, 20000, 20000, 1<<40))
			floor := int64(tc.whole) / m
			met := op.Metrics()
			for j := 0; j < 16; j++ {
				js := met.JoinerStats(j)
				n, arena, dir := js.StoredTuples.Load(), js.ArenaBytes.Load(), js.DirectoryBytes.Load()
				if n == 0 || arena < floor*n || dir <= 0 || dir >= 8*n {
					t.Fatalf("joiner %d stores %d tuples in %d arena + %d directory bytes", j, n, arena, dir)
				}
			}
			total, dir := met.ResidentBytesPerTuple()
			if total < float64(floor) || total >= tc.whole || dir <= 0 || dir >= 8 {
				t.Fatalf("resident bytes per stored tuple: %.1f, of which directory %.1f", total, dir)
			}
			t.Logf("resident bytes per stored tuple: %.1f, of which directory %.1f", total, dir)
		})
	}
}

func TestStaticOperatorEquiJoinExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pred := join.EquiJoin("eq", nil)
	tuples := mixedStream(rng, 2000, 2000, 97)
	want := stampedPairs(pred, tuples)
	got, op := runOperator(t, Config{J: 16, Pred: pred, Seed: 7}, tuples)
	exact.Equal(t, got, want)
	if op.Migrations() != 0 {
		t.Fatalf("static operator migrated %d times", op.Migrations())
	}
}

func TestStaticOperatorBandJoinExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pred := join.BandJoin("band", 2, func(r, s join.Tuple) bool { return r.Aux > 20 })
	tuples := mixedStream(rng, 1500, 1500, 300)
	want := stampedPairs(pred, tuples)
	got, _ := runOperator(t, Config{J: 4, Pred: pred, Seed: 3}, tuples)
	exact.Equal(t, got, want)
}

func TestStaticOperatorThetaJoinExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pred := join.ThetaJoin("neq", func(r, s join.Tuple) bool { return r.Key != s.Key })
	tuples := mixedStream(rng, 300, 300, 10)
	want := stampedPairs(pred, tuples)
	got, _ := runOperator(t, Config{J: 8, Pred: pred, Seed: 5}, tuples)
	exact.Equal(t, got, want)
}

// The central correctness theorem (Thm 4.5): with adaptivity on and
// multiple migrations happening mid-stream, the output is still exactly
// the reference join — no lost and no duplicated pairs.
func TestAdaptiveOperatorMigratesAndStaysExact(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pred := join.EquiJoin("eq", nil)
	// Heavily lopsided stream: R tiny, S huge -> optimal mapping far
	// from the square start; adaptation must migrate several steps.
	var tuples []join.Tuple
	for i := 0; i < 200; i++ {
		tuples = append(tuples, join.Tuple{Rel: matrix.SideR, Key: rng.Int63n(50), Size: 8})
	}
	for i := 0; i < 12000; i++ {
		tuples = append(tuples, join.Tuple{Rel: matrix.SideS, Key: rng.Int63n(50), Size: 8})
	}
	want := stampedPairs(pred, tuples)
	got, op := runOperator(t, Config{J: 16, Pred: pred, Adaptive: true, Warmup: 500, Seed: 11}, tuples)
	if msg := exact.Diff(got, want); msg != "" {
		t.Fatalf("adaptive operator: %s (migrations=%d)", msg, op.Migrations())
	}
	if op.Migrations() == 0 {
		t.Fatal("expected at least one migration on a lopsided stream")
	}
	if m := op.DeployedMapping(); m.N >= m.M {
		t.Fatalf("deployed mapping %v did not move toward (1,%d)", m, 16)
	}
}

// reshufflerCases runs a protocol test twice: with the default
// reshuffler count (min(J, GOMAXPROCS), a single ring on one core) and
// with one reshuffler per joiner, so the multi-ring paths — epoch
// signals, EOS and barrier markers aligned across rings — stay covered
// at every GOMAXPROCS.
func reshufflerCases(t *testing.T, j int, run func(t *testing.T, numRe int)) {
	t.Run("default", func(t *testing.T) { run(t, 0) })
	t.Run(fmt.Sprintf("reshufflers=%d", j), func(t *testing.T) { run(t, j) })
}

// batchCases runs a migration oracle at three envelope sizes: BatchSize
// 1, where every run is one tuple; probeRun, where a run of one epoch's
// tuples of one relation is probed as one sub-run; and the default
// (DefaultBatchSize, a block), where a run spans several sub-runs
// (joiner.probeEach).
func batchCases(t *testing.T, run func(t *testing.T, bs int)) {
	for _, bs := range []int{1, probeRun, DefaultBatchSize} {
		t.Run(fmt.Sprintf("batch=%d", bs), func(t *testing.T) { run(t, bs) })
	}
}

// TestDefaultReshufflersFollowCores pins the reshuffler default: one
// routing task per core, never more than the grid has joiners.
func TestDefaultReshufflersFollowCores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, tc := range []struct{ j, want int }{{16, 2}, {1, 1}} {
		op := mustOperator(t, Config{J: tc.j, Pred: join.EquiJoin("eq", nil)})
		if got := len(op.sources); got != tc.want {
			t.Errorf("J=%d at GOMAXPROCS=2: %d source rings, want %d", tc.j, got, tc.want)
		}
	}
}

// Interleave the relations adversarially so migrations fire in both
// directions (fluctuation), and verify exactness for every index kind
// the migrated blocks are adopted into: hash (equi), ordered (band) and
// scan (theta). Pairs are compared by content, so a column the block
// codec dropped would fail the run even with every count right.
func TestAdaptiveOperatorFluctuationExact(t *testing.T) {
	uniform := func(rng *rand.Rand) int64 { return rng.Int63n(400) }
	cases := []struct {
		pred  join.Predicate
		burst int
		key   func(*rand.Rand) int64
	}{
		{join.EquiJoin("eq", nil), 2500, uniform},
		{join.BandJoin("band", 1, nil), 2500, uniform},
		// ≠ matches nearly every pair of uniform keys; a hot key holding
		// 499 in 500 tuples keeps the oracle to a few tenths of a
		// percent of pairs.
		{join.ThetaJoin("neq", func(r, s join.Tuple) bool { return r.Key != s.Key }), 2500,
			func(rng *rand.Rand) int64 {
				if rng.Intn(500) != 0 {
					return 0
				}
				return rng.Int63n(400)
			}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.pred.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			var tuples []join.Tuple
			// Alternating bursts: R-heavy, then S-heavy, repeatedly.
			for burst := 0; burst < 6; burst++ {
				side := matrix.SideR
				if burst%2 == 1 {
					side = matrix.SideS
				}
				for i := 0; i < tc.burst; i++ {
					tuples = append(tuples, join.Tuple{Rel: side, Key: tc.key(rng), Size: 8})
				}
			}
			withContent(rng, tuples)
			want := wantPairs(tc.pred, tuples, contentOf)
			reshufflerCases(t, 8, func(t *testing.T, numRe int) {
				batchCases(t, func(t *testing.T, bs int) {
					op := runContentExact(t, Config{J: 8, Pred: tc.pred, Adaptive: true, Seed: 13, NumReshufflers: numRe, BatchSize: bs}, tuples, want)
					if op.Migrations() < 2 {
						t.Fatalf("only %d migrations under fluctuation", op.Migrations())
					}
					checkMigrationConserved(t, op.Metrics())
				})
			})
		})
	}
}

func TestAdaptiveOperatorManySmallRuns(t *testing.T) {
	pred := join.EquiJoin("eq", nil)
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		nR := 50 + rng.Intn(3000)
		nS := 50 + rng.Intn(3000)
		tuples := mixedStream(rng, nR, nS, 40)
		want := stampedPairs(pred, tuples)
		got, op := runOperator(t, Config{J: 4, Pred: pred, Adaptive: true, Seed: seed}, tuples)
		if msg := exact.Diff(got, want); msg != "" {
			t.Fatalf("seed %d (R=%d S=%d migs=%d): %s", seed, nR, nS, op.Migrations(), msg)
		}
	}
}

// Elastic expansion (§4.2.2, Fig. 5): the operator quadruples its
// joiners when per-joiner state exceeds M/2 and output stays exact.
func TestElasticExpansionExact(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pred := join.EquiJoin("eq", nil)
	tuples := mixedStream(rng, 3000, 3000, 80)
	want := stampedPairs(pred, tuples)
	got, op := runOperator(t, Config{
		J: 4, Pred: pred, Adaptive: true, Seed: 17,
		Warmup:             600, // first checkpoint lands past M/2 ...
		MaxTuplesPerJoiner: 400, // ... forcing expansion mid-stream
	}, tuples)
	if op.Metrics().Expansions.Load() == 0 {
		t.Fatal("expected an elastic expansion")
	}
	if op.NumJoiners() < 16 {
		t.Fatalf("joiners after expansion: %d", op.NumJoiners())
	}
	exact.Equal(t, got, want)
}

// Dummy padding (§4.2.2): with one relation absurdly larger, dummies
// keep the stored ratio within J without corrupting results.
func TestDummyPaddingExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pred := join.EquiJoin("eq", nil)
	var tuples []join.Tuple
	for i := 0; i < 5; i++ {
		tuples = append(tuples, join.Tuple{Rel: matrix.SideR, Key: rng.Int63n(10), Size: 8})
	}
	for i := 0; i < 4000; i++ {
		tuples = append(tuples, join.Tuple{Rel: matrix.SideS, Key: rng.Int63n(10), Size: 8})
	}
	want := stampedPairs(pred, tuples)
	got, op := runOperator(t, Config{J: 4, Pred: pred, Adaptive: true, PadDummies: true, Seed: 19}, tuples)
	exact.Equal(t, got, want)
	if op.Metrics().DummyTuples.Load() == 0 {
		t.Fatal("no dummies injected despite extreme ratio")
	}
}

// Every input tuple must be counted by the ILF of some joiner, and the
// adaptive operator's max ILF should beat the static square mapping on
// a lopsided stream (the Fig. 6a effect).
func TestAdaptiveILFBeatsStaticMid(t *testing.T) {
	pred := join.EquiJoin("eq", nil)
	rng := rand.New(rand.NewSource(8))
	var tuples []join.Tuple
	for i := 0; i < 400; i++ {
		tuples = append(tuples, join.Tuple{Rel: matrix.SideR, Key: rng.Int63n(100), Size: 8})
	}
	for i := 0; i < 25000; i++ {
		tuples = append(tuples, join.Tuple{Rel: matrix.SideS, Key: rng.Int63n(100), Size: 8})
	}
	// Warmup covers the R prefix so adaptation reacts to the true
	// (lopsided) mix rather than the cold-start prefix, as in §5.4.
	_, static := runOperator(t, Config{J: 16, Pred: pred, Seed: 23}, tuples)
	_, dynamic := runOperator(t, Config{J: 16, Pred: pred, Adaptive: true, Warmup: 2000, Seed: 23}, tuples)
	s := static.Metrics().MaxILFTuples()
	d := dynamic.Metrics().MaxILFTuples()
	if d >= s {
		t.Fatalf("adaptive ILF %d not better than static %d", d, s)
	}
}

// TestOperatorConfigValidation pins the grid route's J rounding (down
// to the largest power of two, an initial mapping checked against the
// rounded count) and its rejections; the rest of Validate's rejections
// are pinned at the public surface (TestInvalidOptionsReturnErrors).
func TestOperatorConfigValidation(t *testing.T) {
	eq := join.EquiJoin("eq", nil)
	for _, cfg := range []Config{
		{J: 0, Pred: eq},
		{J: -3, Pred: eq},
		{J: 12, Pred: eq, Initial: matrix.Mapping{N: 4, M: 4}},
		{J: 16, Pred: eq, Initial: matrix.Mapping{N: 2, M: 4}},
		{J: 4, Pred: join.BandJoin("band", -1, nil)},
	} {
		if _, err := NewOperator(cfg); err == nil {
			t.Errorf("NewOperator accepted %+v", cfg)
		}
	}
	for j, want := range map[int]int{1: 1, 2: 2, 3: 2, 5: 4, 6: 4, 7: 4, 8: 8, 12: 8, 20: 16, 1023: 512, 1024: 1024} {
		cfg := Config{J: j, Pred: eq}
		if err := cfg.Validate(GridEngine); err != nil {
			t.Fatalf("J=%d: %v", j, err)
		}
		if cfg.J != want || cfg.Initial.J() != want {
			t.Errorf("grid J=%d runs %d joiners on %v, want %d", j, cfg.J, cfg.Initial, want)
		}
		hash := Config{J: j, Pred: eq}
		if err := hash.Validate(HashEngine); err != nil || hash.J != j {
			t.Errorf("hash J=%d validated to %d (%v), want it unchanged", j, hash.J, err)
		}
	}
}

func TestOperatorLatencySamplerWired(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pred := join.EquiJoin("eq", nil)
	tuples := mixedStream(rng, 800, 800, 5)
	lat := newTestSampler()
	_, _ = runOperatorWithLatency(t, Config{J: 4, Pred: pred, Seed: 31, Latency: lat}, tuples)
	if lat.Count() == 0 {
		t.Fatal("no latency samples captured")
	}
	if mean, ok := lat.Mean(); !ok || mean < 0 {
		t.Fatalf("mean latency %v ok=%v", mean, ok)
	}
}
