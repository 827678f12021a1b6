package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/storage"
)

// TestBandLineTreePerRow runs a band join on a (4,4) grid in one
// process at 1, 2, 4 and 8 reshufflers and requires the oracle's count,
// every joiner reading one live segment per side over an empty own
// tree, and the joiners of one grid row (column) reading the same line
// tree: each R (S) tuple was inserted once per process, not once per
// joiner of its row (column).
func TestBandLineTreePerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	pred := join.BandJoin("band", 3, nil)
	tuples := mixedStream(rng, 3000, 3000, 20_000)
	want := refCount(pred, tuples)
	for _, numRe := range []int{1, 2, 4, 8} {
		got, op := runOperator(t, Config{J: 16, Pred: pred, Seed: 3, NumReshufflers: numRe}, tuples)
		if got != want {
			t.Fatalf("%d reshufflers: emitted %d, reference %d", numRe, got, want)
		}
		if m := op.cfg.Initial; m.N != 4 || m.M != 4 {
			t.Fatalf("mapping %v, want (4,4)", m)
		}
		checkSharedIndexes(t, fmt.Sprintf("%d reshufflers: ", numRe), op.joiners)
	}
}

// TestBandLineTreeAcrossCheckpoints checkpoints a (4,4) band grid on two
// reshufflers every 500 tuples while the stream flows: each capture
// scans a store's own tree and its segment under the line tree's read
// lock while the line's writer may be inserting. The output must equal
// the oracle's and every joiner must still read its lines' trees after
// Finish. Then a checkpoint chain of the same grid restores, replays
// and must recover the oracle's pairs exactly.
func TestBandLineTreeAcrossCheckpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	pred := join.BandJoin("band", 2, nil)
	tuples := mixedStream(rng, 3000, 3000, 20_000)
	want := refCount(pred, tuples)
	got, op := runOperator(t, Config{J: 16, Pred: pred, Seed: 3, NumReshufflers: 2,
		Backend: storage.NewMemBackend(), CheckpointEvery: 500}, tuples)
	if got != want {
		t.Fatalf("emitted %d, reference %d", got, want)
	}
	if n := op.Metrics().Checkpoints.Load(); n < 2 {
		t.Fatalf("%d checkpoints committed, want at least 2", n)
	}
	checkSharedIndexes(t, "", op.joiners)

	stampSeqs(tuples, 0)
	runCheckpointChain(t, Config{J: 16, Pred: pred, Seed: 7, NumReshufflers: 2}, tuples, 4, refPairs(pred, tuples))
}

// TestBandLineTreeAcrossMigrationExact drives an adaptive band grid from
// (4,4) toward (1,16) with a lopsided stream: each migration selects
// and discards from stores that read first-epoch line trees, which fold
// the segments into their own trees first, while ∆ windows of the old
// lines keep arriving. The pair multiset, by content, must equal the
// oracle's, and migrated state must be conserved.
func TestBandLineTreeAcrossMigrationExact(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	pred := join.BandJoin("band", 2, nil)
	tuples := make([]join.Tuple, 6300)
	for i := range tuples {
		rel := matrix.SideS
		if rng.Intn(21) == 0 {
			rel = matrix.SideR
		}
		tuples[i] = join.Tuple{Rel: rel, Key: rng.Int63n(400), Size: 8}
	}
	withContent(rng, tuples)
	want := refMultiset(pred, tuples, contentOf)
	got, op := runOperatorContent(t, Config{J: 16, Pred: pred, Adaptive: true, Warmup: 400, Seed: 13}, tuples)
	diffMultisets(t, got, want)
	if op.Migrations() == 0 {
		t.Fatal("no migration on a lopsided stream")
	}
	checkMigrationConserved(t, op.Metrics())
}
