package squall_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	squall "repro"
	"repro/internal/exact"
)

// emitStream builds a lopsided R-then-S-flood equi-join input (the
// shape that forces adaptive migration toward a (1,J) mapping
// mid-stream) with every tuple uniquely identified through Aux.
func emitStream(nR, nS int, dom, seed int64) []squall.Tuple {
	rng := rand.New(rand.NewSource(seed))
	out := make([]squall.Tuple, 0, nR+nS)
	for i := 0; i < nR; i++ {
		out = append(out, squall.Tuple{Rel: squall.SideR, Key: rng.Int63n(dom), Aux: int64(i) + 1, Size: 8})
	}
	for i := 0; i < nS; i++ {
		out = append(out, squall.Tuple{Rel: squall.SideS, Key: rng.Int63n(dom), Aux: int64(i) + 1<<20, Size: 8})
	}
	return out
}

// auxPairs is exact's pair multiset of pred over tuples, each pair
// keyed by its members' Aux identities: a sort-merge for a
// residual-free equi or band predicate, a nested loop over Matches
// otherwise.
func auxPairs(pred squall.Predicate, tuples []squall.Tuple) [][2]uint64 {
	var sides [2][]squall.Tuple
	for _, t := range tuples {
		sides[t.Rel] = append(sides[t.Rel], t)
	}
	if pred.Residual != nil || pred.Kind == squall.KindTheta {
		match := func(r, s *squall.Tuple) bool { return pred.Matches(*r, *s) }
		return exact.Theta(sides[squall.SideR], sides[squall.SideS], match, auxKey)
	}
	w := pred.Width
	if pred.Kind == squall.KindEqui {
		w = 0
	}
	key := func(t *squall.Tuple) (int64, bool) { return t.Key, !t.Dummy }
	return exact.Band(sides[squall.SideR], sides[squall.SideS], w, key, auxKey)
}

// emitOracle is auxPairs of the equi-join on Key.
func emitOracle(tuples []squall.Tuple) [][2]uint64 { return auxPairs(squall.Equi("oracle"), tuples) }

func auxKey(r, s *squall.Tuple) [2]uint64 { return [2]uint64{uint64(r.Aux), uint64(s.Aux)} }

// emitShardRec accumulates one shard's output. The appends are
// deliberately unsynchronized: the Sharded contract serializes
// same-shard calls, so under -race any contract violation surfaces as a
// detected race, and the CAS flag catches overlap even in non-race runs.
type emitShardRec struct {
	inFlight atomic.Bool
	pairs    [][2]uint64
	_        [64]byte
}

// The sharded sink must be invisible in the result multiset: across
// power-of-two and other joiner counts, batch sizes 1 and 32, and a
// grid that expands elastically mid-stream, the
// output matches the nested-loop oracle exactly — while migrations
// relocate state, four feeders send concurrently, and the per-shard
// serialization contract is actively checked. Each shard is one joiner
// task, so same-shard calls never overlap; the elastic case checks that
// the children an expansion spawns emit under fresh shard ids (>= J).
func TestShardedEmitExactness(t *testing.T) {
	tuples := emitStream(300, 4000, 40, 7)
	want := emitOracle(tuples)

	// The subtests named workers=0 keep their IDs from the retired
	// emit-worker axis.
	cases := []struct {
		name           string
		joiners, batch int
		// maxJoiners > 0 enables elastic expansion capped there.
		maxJoiners int
	}{
		{"operator/workers=0/batch=1", 8, 1, 0}, // power of two: single grid
		{"operator/workers=0/batch=32", 8, 32, 0},
		{"grouped/workers=0/batch=1", 6, 1, 0}, // not a power of two: a grid of 4
		{"grouped/workers=0/batch=32", 6, 32, 0},
		// J = 8 under a per-joiner cap of 600 tuples: with the 300 R
		// tuples stored, the first Alg. 2 check past ~1 000 S tuples
		// predicts more than 300 per joiner and splits 8 -> 32; the
		// 32-joiner cap forbids a second split.
		{"operator/elastic", 8, 32, 32},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			shards := make([]*emitShardRec, max(tc.joiners, tc.maxJoiners))
			for i := range shards {
				shards[i] = &emitShardRec{}
			}
			var violations atomic.Int64
			sink := squall.Sharded(func(shard int, ps []squall.Pair) {
				sh := shards[shard]
				if !sh.inFlight.CompareAndSwap(false, true) {
					violations.Add(1)
				}
				for i := range ps {
					sh.pairs = append(sh.pairs, auxKey(&ps[i].R, &ps[i].S))
				}
				sh.inFlight.Store(false)
			})

			opts := []squall.Option{
				squall.WithJoiners(tc.joiners),
				squall.WithAdaptive(),
				squall.WithWarmup(300),
				squall.WithSeed(11),
				squall.WithBatchSize(tc.batch),
			}
			if tc.maxJoiners > 0 {
				opts = append(opts, squall.WithElastic(600, tc.maxJoiners))
			}
			e := squall.NewEngine(squall.Equi("emit"), sink, opts...)
			e.Start()

			rest := tuples
			if tc.maxJoiners > 0 {
				// The controller decides asynchronously and drops a pending
				// expansion once the input has drained: feed the R tuples
				// and the first 2 500 S tuples (past the check that splits),
				// wait until a child joiner (id >= J) reports input — its
				// share of the split state, which its parent sends once a
				// reshuffler's signal for the expanded grid reaches it —
				// then feed the rest on that grid. An issued expansion
				// (Expansions > 0) is not yet one a reshuffler routes on.
				feedConcurrently(t, e, rest[:2800])
				rest = rest[2800:]
				for deadline := time.Now().Add(30 * time.Second); !childHasInput(e.Metrics(), tc.joiners); {
					if time.Now().After(deadline) {
						t.Fatalf("no child joiner reported input; expansions issued: %d", e.Metrics().Expansions.Load())
					}
					time.Sleep(time.Millisecond)
				}
			}
			feedConcurrently(t, e, rest)
			if err := e.Finish(); err != nil {
				t.Fatal(err)
			}

			if v := violations.Load(); v != 0 {
				t.Fatalf("%d overlapping same-shard sink calls; Sharded must serialize within a shard", v)
			}
			m := e.Metrics()
			if tc.maxJoiners > 0 {
				if m.Expansions.Load() == 0 {
					t.Fatal("no elastic expansion; the case must cover shards minted mid-stream")
				}
			} else if m.Migrations.Load() == 0 {
				t.Fatal("no migrations; the test must cover emission during state relocation")
			}
			var got [][2]uint64
			activeShards, childShards := 0, 0
			for id, sh := range shards {
				if len(sh.pairs) > 0 {
					activeShards++
					if id >= tc.joiners {
						childShards++
					}
				}
				got = append(got, sh.pairs...)
			}
			if activeShards < 2 {
				t.Fatalf("results arrived on %d shard(s); want the fanout spread across joiners", activeShards)
			}
			if tc.maxJoiners > 0 && childShards == 0 {
				t.Fatalf("no shard id >= J=%d received pairs; expansion children must emit under fresh ids", tc.joiners)
			}
			exact.Equal(t, got, want)
		})
	}
}

// childHasInput reports whether a joiner an expansion spawned — an id
// at or past j — has counted input.
func childHasInput(m *squall.OperatorMetrics, j int) bool {
	for id := j; id < m.NumJoiners(); id++ {
		if m.JoinerStats(id).InputTuples.Load() > 0 {
			return true
		}
	}
	return false
}

// feedConcurrently splits ts over four feeder goroutines, each sending
// 64-tuple batches, and returns once all have finished.
func feedConcurrently(t *testing.T, e squall.Engine, ts []squall.Tuple) {
	t.Helper()
	var wg sync.WaitGroup
	const feeders = 4
	chunk := (len(ts) + feeders - 1) / feeders
	for lo := 0; lo < len(ts); lo += chunk {
		wg.Add(1)
		go func(ts []squall.Tuple) {
			defer wg.Done()
			for len(ts) > 0 {
				n := min(64, len(ts))
				if err := e.SendBatch(ts[:n]); err != nil {
					t.Error(err)
					return
				}
				ts = ts[n:]
			}
		}(ts[lo:min(lo+chunk, len(ts))])
	}
	wg.Wait()
}
