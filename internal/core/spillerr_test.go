package core

import (
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/storage"
)

// truncateSpills empties every spill segment file in dir, so the next
// read of a record spilled there fails, and reports how many it found.
func truncateSpills(t *testing.T, dir string) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "squall-spill-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if err := os.Truncate(f, 0); err != nil {
			t.Fatal(err)
		}
	}
	return len(files)
}

// TestMigrationMergeReadErrorSurfaces: finalizing a migration merges µ
// and ∆′ into the joiner's state (maybeFinalize). When µ is a budgeted
// store whose spilled records cannot be read back, the merge misses
// them; the failed read must end the joiner's task and surface from
// Finish instead of vanishing with µ's Close. Joiner 0 of a (1,2) grid
// on one reshuffler starts the run inside an elementary step to (2,1)
// with no partner, so the one signal pushed below finalizes it.
func TestMigrationMergeReadErrorSurfaces(t *testing.T) {
	pred := join.EquiJoin("eq", nil)
	from, to := matrix.Mapping{N: 1, M: 2}, matrix.Mapping{N: 2, M: 1}
	op := mustOperator(t, Config{J: 2, Pred: pred, Initial: from, NumReshufflers: 1,
		Storage: storage.Config{CapBytes: 1 << 20, Dir: t.TempDir()}})
	w := op.joiners[0]
	dir := t.TempDir()
	mu := storage.NewStore(pred, storage.Config{CapBytes: 48, Dir: dir})
	for i := 0; i < 8; i++ {
		mu.Insert(join.Tuple{Rel: matrix.SideS, Key: int64(i), Seq: uint64(i + 1), Size: 8})
	}
	if !mu.Spilled() || truncateSpills(t, dir) == 0 {
		t.Fatal("µ spilled nothing")
	}
	w.mig = &migState{
		epoch:      1,
		newMapping: to,
		newCell:    matrix.NewTransition(from, to).NewCell(w.cell),
		keep:       [2]matrix.Top{matrix.TopAll, matrix.TopAll},
		mu:         mu,
		dp:         storage.NewStore(pred, w.stCfg),
	}
	op.Start()
	op.topo.pushData(w.id, ctrlEnv(message{kind: kSignal, epoch: 1, mapping: to, from: 0}))
	if err := op.Finish(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Finish = %v, want the failed spill read of the merge", err)
	}
}

// TestCheckpointCaptureReadErrorFails: a checkpoint capture re-reads a
// budgeted store's spilled records. When they cannot be read back the
// capture would be short, so the checkpoint must fail as a failed
// backend write does — Checkpoint returns the error, CheckpointFailures
// counts it and nothing commits — rather than commit a short capture
// that only the store's Close reports later.
func TestCheckpointCaptureReadErrorFails(t *testing.T) {
	pred := join.EquiJoin("eq", nil)
	dir := t.TempDir()
	backend := storage.NewMemBackend()
	op := mustOperator(t, Config{J: 4, Pred: pred, Seed: 3, Backend: backend,
		Storage: storage.Config{CapBytes: 4 * 1024, Dir: dir}})
	op.Start()
	tuples := mixedStream(rand.New(rand.NewSource(101)), 2000, 2000, 1<<20)
	if err := op.SendBatch(tuples); err != nil {
		t.Fatal(err)
	}
	// A (2,2) grid stores every tuple twice; wait until all are stored.
	deadline := time.Now().Add(10 * time.Second)
	for stored := int64(0); stored != 2*int64(len(tuples)); {
		if time.Now().After(deadline) {
			t.Fatalf("%d replicas stored, want %d", stored, 2*len(tuples))
		}
		time.Sleep(time.Millisecond)
		stored = 0
		for j := 0; j < 4; j++ {
			stored += op.Metrics().JoinerStats(j).StoredTuples.Load()
		}
	}
	if truncateSpills(t, dir) == 0 {
		t.Fatal("nothing spilled")
	}
	if err := op.Checkpoint(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Checkpoint = %v, want the failed spill read of the capture", err)
	}
	if f, c := op.Metrics().CheckpointFailures.Load(), op.Metrics().Checkpoints.Load(); f != 1 || c != 0 {
		t.Fatalf("%d failed and %d committed checkpoints, want 1 and 0", f, c)
	}
	if err := op.Finish(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Finish = %v, want the stores' failed spill read", err)
	}
}
