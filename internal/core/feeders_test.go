package core

import (
	"cmp"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/exact"
	"repro/internal/join"
	"repro/internal/matrix"
)

// feederPairs collects emitted pairs as (rAux, sAux, rSeq, sSeq), safe
// for the concurrent calls of several joiners. Feeder interleaving
// decides sequence numbers and routing values, so only the
// caller-chosen Aux, unique per tuple in the tests below, identifies a
// pair across runs; the seqs pin Aux→Seq consistency.
type feederPairs struct {
	mu   sync.Mutex
	keys [][4]uint64
}

func (ps *feederPairs) emit(batch []join.Pair) {
	ps.mu.Lock()
	for _, p := range batch {
		ps.keys = append(ps.keys, [4]uint64{uint64(p.R.Aux), uint64(p.S.Aux), p.R.Seq, p.S.Seq})
	}
	ps.mu.Unlock()
}

// feederStream builds a lopsided stream (R prefix, S flood — several
// migrations under an adaptive operator) where every tuple carries a
// unique Aux, so pair identities survive nondeterministic sequencing.
func feederStream(nR, nS int, keys int64, seed int64) []join.Tuple {
	rng := rand.New(rand.NewSource(seed))
	tuples := make([]join.Tuple, 0, nR+nS)
	for i := 0; i < nR; i++ {
		tuples = append(tuples, join.Tuple{Rel: matrix.SideR, Key: rng.Int63n(keys), Aux: int64(i + 1), Size: 8})
	}
	for i := 0; i < nS; i++ {
		tuples = append(tuples, join.Tuple{Rel: matrix.SideS, Key: rng.Int63n(keys), Aux: int64(nR + i + 1), Size: 8})
	}
	return tuples
}

// assertFeederExact requires the emitted pairs, by Aux, to be exactly
// exact's over the accepted tuples — the symmetric join's output is
// the full match set whatever the arrival order, so it is interleaving-
// and migration-invariant — and every tuple to surface with one
// sequence number, and no two tuples with the same one: the
// stored-partner-is-older ownership rule exactness rests on needs the
// shared counter's numbers to be unique.
func assertFeederExact(t *testing.T, got *feederPairs, accepted []join.Tuple) {
	t.Helper()
	pairs := make([][2]uint64, len(got.keys))
	var members [][2]uint64 // (Aux, Seq) of every pair member
	for i, k := range got.keys {
		pairs[i] = [2]uint64{k[0], k[1]}
		members = append(members, [2]uint64{k[0], k[2]}, [2]uint64{k[1], k[3]})
	}
	exact.Equal(t, pairs, wantPairs(join.EquiJoin("eq", nil), accepted, auxKey))
	slices.SortFunc(members, func(a, b [2]uint64) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
	members = slices.Compact(members)
	for i := 1; i < len(members); i++ {
		if members[i][0] == members[i-1][0] {
			t.Fatalf("tuple Aux %d surfaced with sequence numbers %d and %d", members[i][0], members[i-1][1], members[i][1])
		}
	}
	slices.SortFunc(members, func(a, b [2]uint64) int { return cmp.Compare(a[1], b[1]) })
	for i := 1; i < len(members); i++ {
		if members[i][1] == members[i-1][1] {
			t.Fatalf("seq %d stamped on both aux %d and %d", members[i][1], members[i-1][0], members[i][0])
		}
	}
}

// feedShard feeds feeder f's shard of tuples (every feeders-th tuple
// from f) through a random mix of Send and SendBatch, reporting each
// delivered run to accept. It stops at the first ErrFinished.
func feedShard(t *testing.T, op *Operator, tuples []join.Tuple, f, feeders int, accept func([]join.Tuple)) {
	rng := rand.New(rand.NewSource(int64(1000 + f)))
	var batch []join.Tuple
	for i := f; i < len(tuples); {
		var err error
		if rng.Intn(3) == 0 {
			batch = append(batch[:0], tuples[i])
			i += feeders
			err = op.Send(batch[0])
		} else {
			batch = batch[:0]
			for n := 1 + rng.Intn(64); n > 0 && i < len(tuples); i += feeders {
				batch = append(batch, tuples[i])
				n--
			}
			err = op.SendBatch(batch)
		}
		if errors.Is(err, ErrFinished) {
			return
		}
		if err != nil {
			t.Error(err)
			return
		}
		accept(batch)
	}
}

// TestConcurrentFeedersExact is the race-coverage test of the ingest
// front end: several goroutines feed their shard of a migration-forcing
// stream through a mix of Send and SendBatch while the adaptive
// controller migrates, and the emitted pair multiset must equal the
// single-feeder oracle exactly. Every tuple must also surface with one
// sequence number, and no two tuples with the same one — the stored-
// partner-is-older ownership rule exactness rests on needs the shared
// counter's numbers to be unique. Under -race this also pins the
// shared sequence counter, the deal and the sharded counters as
// data-race-free.
func TestConcurrentFeedersExact(t *testing.T) {
	reshufflerCases(t, 16, func(t *testing.T, numRe int) {
		const feeders = 4
		tuples := feederStream(220, 9000, 50, 77)
		ps := new(feederPairs)
		op := mustOperator(t, Config{
			J: 16, Pred: join.EquiJoin("eq", nil), Adaptive: true,
			Seed: 7, EmitBatch: ps.emit, NumReshufflers: numRe,
		})
		op.Start()

		var wg sync.WaitGroup
		for f := 0; f < feeders; f++ {
			wg.Add(1)
			go func(f int) {
				defer wg.Done()
				feedShard(t, op, tuples, f, feeders, func([]join.Tuple) {})
			}(f)
		}
		wg.Wait()
		if err := op.Finish(); err != nil {
			t.Fatal(err)
		}
		if op.Migrations() == 0 {
			t.Fatal("expected migrations on a lopsided stream")
		}
		assertFeederExact(t, ps, tuples)
	})
}

// TestFinishRaceExact races Finish against concurrent feeders once the
// controller has issued a migration: every Send and SendBatch is
// all-or-nothing with respect to Finish, so the emitted multiset must
// equal the oracle over exactly the accepted tuples — no partial batch,
// no pair from a rejected one.
func TestFinishRaceExact(t *testing.T) {
	reshufflerCases(t, 8, func(t *testing.T, numRe int) {
		const feeders = 4
		tuples := feederStream(150, 12000, 40, 99)
		ps := new(feederPairs)
		op := mustOperator(t, Config{
			J: 8, Pred: join.EquiJoin("eq", nil), Adaptive: true,
			Seed: 3, EmitBatch: ps.emit, NumReshufflers: numRe,
		})
		op.Start()

		var (
			wg     sync.WaitGroup
			done   atomic.Int32
			accMu  sync.Mutex
			accept []join.Tuple
		)
		for f := 0; f < feeders; f++ {
			wg.Add(1)
			go func(f int) {
				defer wg.Done()
				defer done.Add(1)
				feedShard(t, op, tuples, f, feeders, func(run []join.Tuple) {
					accMu.Lock()
					accept = append(accept, run...)
					accMu.Unlock()
				})
			}(f)
		}
		// Let the feeders run until the lopsided stream forces a
		// migration, then cut them off mid-stream.
		for op.Migrations() == 0 && done.Load() < feeders {
			runtime.Gosched()
		}
		if err := op.Finish(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if op.Migrations() == 0 {
			t.Fatal("expected a migration before the feeders were cut off")
		}
		assertFeederExact(t, ps, accept)
	})
}
