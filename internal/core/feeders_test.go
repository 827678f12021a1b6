package core

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/join"
	"repro/internal/matrix"
)

// feederPairKey is the stable identity of an emitted pair under
// concurrent feeders: feeder interleaving decides sequence numbers and
// routing values, so only the caller-chosen fields identify a tuple
// across runs. Tests below give every tuple a unique Aux, making
// (rAux, sAux) a full pair identity.
type feederPairKey struct {
	rAux, sAux int64
}

// feederPairSet is a concurrency-safe multiset of pair identities that
// also records each tuple's observed sequence number, so the exactness
// checks can additionally pin Aux→Seq consistency.
type feederPairSet struct {
	mu   sync.Mutex
	m    map[feederPairKey]int
	n    int
	rSeq map[int64]uint64 // rAux -> Seq observed in pairs
	sSeq map[int64]uint64
	bad  bool // an Aux was seen with two different Seqs
}

func newFeederPairSet() *feederPairSet {
	return &feederPairSet{
		m:    make(map[feederPairKey]int),
		rSeq: make(map[int64]uint64),
		sSeq: make(map[int64]uint64),
	}
}

func (ps *feederPairSet) emit(batch []join.Pair) {
	ps.mu.Lock()
	for _, p := range batch {
		ps.m[feederPairKey{rAux: p.R.Aux, sAux: p.S.Aux}]++
		ps.n++
		if seq, ok := ps.rSeq[p.R.Aux]; ok && seq != p.R.Seq {
			ps.bad = true
		}
		ps.rSeq[p.R.Aux] = p.R.Seq
		if seq, ok := ps.sSeq[p.S.Aux]; ok && seq != p.S.Seq {
			ps.bad = true
		}
		ps.sSeq[p.S.Aux] = p.S.Seq
	}
	ps.mu.Unlock()
}

// feederOracle returns the exact pair multiset of a symmetric equi-join
// over tuples: every key-matching (r, s) combination exactly once,
// regardless of arrival order (the exactness theorem — the stored
// symmetric join's output is the full match set, so it is
// interleaving- and migration-invariant).
func feederOracle(tuples []join.Tuple) map[feederPairKey]int {
	byKey := make(map[int64][]join.Tuple)
	out := make(map[feederPairKey]int)
	for _, tp := range tuples {
		if tp.Rel == matrix.SideS {
			continue
		}
		byKey[tp.Key] = append(byKey[tp.Key], tp)
	}
	for _, tp := range tuples {
		if tp.Rel != matrix.SideS {
			continue
		}
		for _, r := range byKey[tp.Key] {
			out[feederPairKey{rAux: r.Aux, sAux: tp.Aux}]++
		}
	}
	return out
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

// assertFeederExact compares the emitted multiset against the oracle
// of the accepted tuples.
func assertFeederExact(t *testing.T, got *feederPairSet, accepted []join.Tuple) {
	t.Helper()
	want := feederOracle(accepted)
	wantN := 0
	for _, v := range want {
		wantN += v
	}
	if got.bad {
		t.Fatal("a tuple Aux surfaced with two different sequence numbers")
	}
	if got.n != wantN || len(got.m) != len(want) {
		t.Fatalf("emitted %d pairs (%d distinct), oracle %d (%d distinct)",
			got.n, len(got.m), wantN, len(want))
	}
	for k, v := range want {
		if got.m[k] != v {
			t.Fatalf("pair %+v emitted %d times, oracle %d", k, got.m[k], v)
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
		ps := newFeederPairSet()
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

		seen := make(map[uint64]int64)
		for _, seqs := range []map[int64]uint64{ps.rSeq, ps.sSeq} {
			for aux, seq := range seqs {
				if prev, ok := seen[seq]; ok {
					t.Fatalf("seq %d stamped on both aux %d and %d", seq, prev, aux)
				}
				seen[seq] = aux
			}
		}
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
		ps := newFeederPairSet()
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
