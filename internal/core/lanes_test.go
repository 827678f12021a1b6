package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/join"
	"repro/internal/matrix"
)

// lanePairKey is the stable identity of an emitted pair under
// concurrent feeders: lanes assign sequence numbers and routing values
// nondeterministically, so only the caller-chosen fields identify a
// tuple across runs. Tests below give every tuple a unique Aux, making
// (rAux, sAux) a full pair identity.
type lanePairKey struct {
	rAux, sAux int64
}

// lanePairSet is a concurrency-safe multiset of lane pair identities
// that also records each tuple's observed sequence number, so the
// exactness checks can additionally pin the Aux→Seq consistency the
// lane grants must preserve.
type lanePairSet struct {
	mu   sync.Mutex
	m    map[lanePairKey]int
	n    int
	rSeq map[int64]uint64 // rAux -> Seq observed in pairs
	sSeq map[int64]uint64
	bad  bool // an Aux was seen with two different Seqs
}

func newLanePairSet() *lanePairSet {
	return &lanePairSet{
		m:    make(map[lanePairKey]int),
		rSeq: make(map[int64]uint64),
		sSeq: make(map[int64]uint64),
	}
}

func (ps *lanePairSet) emit(p join.Pair) {
	ps.mu.Lock()
	ps.m[lanePairKey{rAux: p.R.Aux, sAux: p.S.Aux}]++
	ps.n++
	if seq, ok := ps.rSeq[p.R.Aux]; ok && seq != p.R.Seq {
		ps.bad = true
	}
	ps.rSeq[p.R.Aux] = p.R.Seq
	if seq, ok := ps.sSeq[p.S.Aux]; ok && seq != p.S.Seq {
		ps.bad = true
	}
	ps.sSeq[p.S.Aux] = p.S.Seq
	ps.mu.Unlock()
}

// laneOracle returns the exact pair multiset of a symmetric equi-join
// over tuples: every key-matching (r, s) combination exactly once,
// regardless of arrival order (the exactness theorem — the stored
// symmetric join's output is the full match set, so it is
// interleaving- and migration-invariant).
func laneOracle(tuples []join.Tuple) map[lanePairKey]int {
	byKey := make(map[int64][]join.Tuple)
	out := make(map[lanePairKey]int)
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
			out[lanePairKey{rAux: r.Aux, sAux: tp.Aux}]++
		}
	}
	return out
}

// laneStream builds a lopsided stream (R prefix, S flood — several
// migrations under an adaptive operator) where every tuple carries a
// unique Aux, so pair identities survive nondeterministic lane
// sequencing.
func laneStream(nR, nS int, keys int64, seed int64) []join.Tuple {
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

// assertLaneExact compares the emitted multiset against the oracle of
// the accepted tuples.
func assertLaneExact(t *testing.T, got *lanePairSet, accepted []join.Tuple) {
	t.Helper()
	want := laneOracle(accepted)
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

// TestLanesConcurrentFeedersExact is the race-coverage test of the
// sharded ingest front end: several goroutines feed their shard of a
// migration-forcing stream through a mix of Send and SendBatch while
// the adaptive controller migrates, and the emitted pair multiset must
// equal the single-feeder oracle exactly. Run under -race this also
// pins the lane pool, grant windows, affinity spill, and sharded
// counters as data-race-free.
func TestLanesConcurrentFeedersExact(t *testing.T) {
	reshufflerCases(t, 16, func(t *testing.T, numRe int) {
		const feeders = 4
		tuples := laneStream(220, 9000, 50, 77)
		ps := newLanePairSet()
		op := NewOperator(Config{
			J: 16, Pred: join.EquiJoin("eq", nil), Adaptive: true,
			SourceLanes: feeders, Seed: 7, Emit: ps.emit, NumReshufflers: numRe,
		})
		op.Start()

		var wg sync.WaitGroup
		for f := 0; f < feeders; f++ {
			wg.Add(1)
			go func(f int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(1000 + f)))
				var batch []join.Tuple
				flush := func() {
					if len(batch) == 0 {
						return
					}
					if err := op.SendBatch(batch); err != nil {
						t.Error(err)
					}
					batch = batch[:0]
				}
				for i := f; i < len(tuples); i += feeders {
					if rng.Intn(3) == 0 {
						flush()
						if err := op.Send(tuples[i]); err != nil {
							t.Error(err)
						}
						continue
					}
					batch = append(batch, tuples[i])
					if len(batch) >= 1+rng.Intn(64) {
						flush()
					}
				}
				flush()
			}(f)
		}
		wg.Wait()
		if err := op.Finish(); err != nil {
			t.Fatal(err)
		}
		if op.Migrations() == 0 {
			t.Fatal("expected migrations on a lopsided stream")
		}
		assertLaneExact(t, ps, tuples)
	})
}

// TestLanesFinishRaceExact races Finish against concurrent feeders:
// every SendBatch under lanes is all-or-nothing with respect to
// Finish, so the emitted multiset must equal the oracle over exactly
// the accepted tuples — no partial batch, no pair from a rejected one.
func TestLanesFinishRaceExact(t *testing.T) {
	const feeders = 4
	tuples := laneStream(150, 4000, 40, 99)
	ps := newLanePairSet()
	op := NewOperator(Config{
		J: 8, Pred: join.EquiJoin("eq", nil), Adaptive: true,
		SourceLanes: feeders, Seed: 3, Emit: ps.emit,
	})
	op.Start()

	var (
		wg     sync.WaitGroup
		accMu  sync.Mutex
		accept []join.Tuple
	)
	start := make(chan struct{})
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			<-start
			rng := rand.New(rand.NewSource(int64(2000 + f)))
			for i := f; i < len(tuples); {
				n := 1 + rng.Intn(24)
				var batch []join.Tuple
				for ; n > 0 && i < len(tuples); i += feeders {
					batch = append(batch, tuples[i])
					n--
				}
				err := op.SendBatch(batch)
				if errors.Is(err, ErrFinished) {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				accMu.Lock()
				accept = append(accept, batch...)
				accMu.Unlock()
			}
		}(f)
	}
	close(start)
	// Let the feeders race ahead, then cut them off mid-stream.
	for op.Metrics().RoutedMessages.Load() < 2000 {
	}
	if err := op.Finish(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	assertLaneExact(t, ps, accept)
}

// TestLaneSeqGrantsExact is the property test of the base+stride seq
// grant scheme: interleaved multi-lane feeders must never produce a
// duplicate or missed pair under migration, and a tuple's granted
// sequence number must be unique (two distinct tuples observed with
// the same Seq would break the stored-partner-is-older ownership rule
// that exactness rests on).
func TestLaneSeqGrantsExact(t *testing.T) {
	for _, lanes := range []int{2, 3, 8} {
		lanes := lanes
		t.Run(map[int]string{2: "lanes=2", 3: "lanes=3", 8: "lanes=8"}[lanes], func(t *testing.T) {
			tuples := laneStream(200, 6000, 60, int64(300+lanes))
			ps := newLanePairSet()
			op := NewOperator(Config{
				J: 8, Pred: join.EquiJoin("eq", nil), Adaptive: true,
				SourceLanes: lanes, Seed: int64(lanes), Emit: ps.emit,
			})
			op.Start()
			var wg sync.WaitGroup
			for f := 0; f < lanes; f++ {
				wg.Add(1)
				go func(f int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(4000 + f)))
					for i := f; i < len(tuples); {
						var batch []join.Tuple
						for n := 1 + rng.Intn(32); n > 0 && i < len(tuples); i += lanes {
							batch = append(batch, tuples[i])
							n--
						}
						if err := op.SendBatch(batch); err != nil {
							t.Error(err)
							return
						}
					}
				}(f)
			}
			wg.Wait()
			if err := op.Finish(); err != nil {
				t.Fatal(err)
			}
			if op.Migrations() == 0 {
				t.Fatal("expected migrations on a lopsided stream")
			}
			assertLaneExact(t, ps, tuples)

			// Seq uniqueness across every tuple observed in any pair:
			// grants are windows of the one global counter, so no two
			// tuples may ever surface with the same sequence number.
			seen := make(map[uint64]int64)
			ps.mu.Lock()
			defer ps.mu.Unlock()
			for aux, seq := range ps.rSeq {
				if prev, ok := seen[seq]; ok {
					t.Fatalf("seq %d granted to both aux %d and %d", seq, prev, aux)
				}
				seen[seq] = aux
			}
			for aux, seq := range ps.sSeq {
				if prev, ok := seen[seq]; ok {
					t.Fatalf("seq %d granted to both aux %d and %d", seq, prev, aux)
				}
				seen[seq] = aux
			}
		})
	}
}
