// Last-good fallback restore: when the newest retained generation is
// unusable — corrupted at rest, or structurally broken by a GC-ordering
// bug that deleted a blob a manifest still references — Restore must
// walk back to the newest generation that validates and recover exactly
// by replaying the longer log suffix.
package faultpoint_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	squall "repro"
	"repro/internal/exact"
)

// runToTwoCheckpoints feeds tuples through an operator committing two
// checkpoint generations (gen 1 full, gen 2 delta) and finishing
// cleanly. It returns the operator (for its replay log) and the
// first run's shard log.
func runToTwoCheckpoints(t *testing.T, backend squall.Backend, pred squall.Predicate, tuples []squall.Tuple) (*squall.Operator, *shardLog) {
	t.Helper()
	run1 := newShardLog(64)
	op := newOperator(pred, run1.sink(), squall.WithJoiners(4), squall.WithSeed(21), squall.WithBackend(backend))
	op.Start()
	feed := func(ts []squall.Tuple) {
		for _, tp := range ts {
			if err := op.Send(tp); err != nil {
				t.Fatalf("send: %v", err)
			}
		}
	}
	feed(tuples[:800])
	if err := op.Checkpoint(); err != nil {
		t.Fatalf("checkpoint 1: %v", err)
	}
	feed(tuples[800:1600])
	if err := op.Checkpoint(); err != nil {
		t.Fatalf("checkpoint 2: %v", err)
	}
	feed(tuples[1600:])
	if err := op.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	return op, run1
}

// recoverAndCheck restores from backend, replays the dead operator's
// log, and checks the spliced output (run 1 cut at the restored
// checkpoint, then the whole recovery run) against the oracle. It
// returns the RestoreInfo for generation assertions.
func recoverAndCheck(t *testing.T, backend squall.Backend, pred squall.Predicate, dead *squall.Operator, run1 *shardLog, tuples []squall.Tuple) *squall.RestoreInfo {
	t.Helper()
	want := oracle(pred, tuples)
	run2 := newShardLog(64)
	op2, info, err := squall.Restore(backend, pred, run2.sink())
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	op2.Start()
	if err := op2.ReplayFrom(dead.ReplayLog()); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := op2.Finish(); err != nil {
		t.Fatalf("finish restored operator: %v", err)
	}
	exact.Equal(t, append(run1.cut(info.Emitted), run2.cut(nil)...), want)
	return info
}

// TestRestoreFallbackCorruptNewest: the newest generation is corrupted
// at rest; Restore skips it, reports it in SkippedGenerations, and the
// fallback generation plus the retained log suffix reproduce the exact
// result.
func TestRestoreFallbackCorruptNewest(t *testing.T) {
	pred := squall.EquiJoin("eq", nil)
	rng := rand.New(rand.NewSource(41))
	tuples := mixedInput(rng, 2400, 43)
	backend := squall.NewMemBackend()

	op, run1 := runToTwoCheckpoints(t, backend, pred, tuples)

	gens, err := backend.Generations()
	if err != nil || len(gens) != 2 {
		t.Fatalf("generations = %v, %v, want 2 retained", gens, err)
	}
	if !backend.Corrupt(gens[0]) {
		t.Fatalf("could not corrupt newest generation %d", gens[0])
	}

	info := recoverAndCheck(t, backend, pred, op, run1, tuples)
	if len(info.SkippedGenerations) != 1 || info.SkippedGenerations[0] != gens[0] {
		t.Fatalf("SkippedGenerations = %v, want [%d]", info.SkippedGenerations, gens[0])
	}
	if info.CheckpointID != gens[1] {
		t.Fatalf("restored generation %d, want fallback %d", info.CheckpointID, gens[1])
	}
}

// TestRecoveryFallbackPastRestoredCommit: a restored operator's first
// commit must keep its replay log covering the generation it was
// restored from. Run 2 restores gen 2, replays, feeds more and commits
// gen 3; gen 3 is then found corrupt, so the next restore falls back to
// gen 2 and replays run 2's log. Everything run 2 consumed between the
// restore and gen 3's barrier must still be in that log: run 1 cut at
// gen 2's barrier plus run 3 must equal the oracle.
func TestRecoveryFallbackPastRestoredCommit(t *testing.T) {
	pred := squall.EquiJoin("eq", nil)
	rng := rand.New(rand.NewSource(46))
	tuples := mixedInput(rng, 3600, 43)
	backend := squall.NewMemBackend()

	op1, run1 := runToTwoCheckpoints(t, backend, pred, tuples[:2400])

	op2, _, err := squall.Restore(backend, pred, newShardLog(64).sink())
	if err != nil {
		t.Fatalf("restore gen 2: %v", err)
	}
	op2.Start()
	if err := op2.ReplayFrom(op1.ReplayLog()); err != nil {
		t.Fatalf("replay into run 2: %v", err)
	}
	if err := op2.SendBatch(tuples[2400:3000]); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := op2.Checkpoint(); err != nil {
		t.Fatalf("checkpoint 3: %v", err)
	}
	if err := op2.SendBatch(tuples[3000:]); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := op2.Finish(); err != nil {
		t.Fatalf("finish run 2: %v", err)
	}

	gens, err := backend.Generations()
	if err != nil || len(gens) != 2 {
		t.Fatalf("generations = %v, %v, want 2 retained", gens, err)
	}
	if !backend.Corrupt(gens[0]) {
		t.Fatalf("could not corrupt generation %d", gens[0])
	}
	info := recoverAndCheck(t, backend, pred, op2, run1, tuples)
	if info.CheckpointID != gens[1] || len(info.SkippedGenerations) != 1 {
		t.Fatalf("restored generation %d skipping %v, want fallback %d skipping [%d]",
			info.CheckpointID, info.SkippedGenerations, gens[1], gens[0])
	}
}

// TestRestoreFallbackMissingBlob is the GC-ordering regression table:
// a committed manifest whose blob has vanished (the state a
// delete-before-commit GC bug would leave behind) must load as
// ErrCorrupt — never a silent partial restore — and the fallback walk
// must still recover exactly from the older generation.
func TestRestoreFallbackMissingBlob(t *testing.T) {
	pred := squall.EquiJoin("eq", nil)
	rng := rand.New(rand.NewSource(42))
	tuples := mixedInput(rng, 2400, 43)
	dir := t.TempDir()
	backend, err := squall.NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}

	op, run1 := runToTwoCheckpoints(t, backend, pred, tuples)

	gens, err := backend.Generations()
	if err != nil || len(gens) != 2 {
		t.Fatalf("generations = %v, %v, want 2 retained", gens, err)
	}
	newest := gens[0]
	blob := filepath.Join(dir, fmt.Sprintf("ckpt-%016x.snap", newest))
	if err := os.Remove(blob); err != nil {
		t.Fatalf("remove newest blob: %v", err)
	}

	if _, lerr := backend.Load(newest); !errors.Is(lerr, squall.ErrCorrupt) {
		t.Fatalf("load with missing blob: %v, want ErrCorrupt", lerr)
	}

	info := recoverAndCheck(t, backend, pred, op, run1, tuples)
	if len(info.SkippedGenerations) != 1 || info.SkippedGenerations[0] != newest {
		t.Fatalf("SkippedGenerations = %v, want [%d]", info.SkippedGenerations, newest)
	}
}

// TestRestoreAllGenerationsCorrupt: when every retained generation is
// rotten, Restore reports an ErrCorrupt-wrapped failure — not
// ErrNoCheckpoint, which would suggest nothing was ever committed.
func TestRestoreAllGenerationsCorrupt(t *testing.T) {
	pred := squall.EquiJoin("eq", nil)
	rng := rand.New(rand.NewSource(43))
	tuples := mixedInput(rng, 2400, 43)
	backend := squall.NewMemBackend()

	_, _ = runToTwoCheckpoints(t, backend, pred, tuples)
	gens, _ := backend.Generations()
	for _, g := range gens {
		if !backend.Corrupt(g) {
			t.Fatalf("could not corrupt generation %d", g)
		}
	}
	_, _, err := squall.Restore(backend, pred, newShardLog(64).sink())
	if err == nil {
		t.Fatal("restore accepted a fully corrupt backend")
	}
	if !errors.Is(err, squall.ErrCorrupt) {
		t.Fatalf("error %v does not wrap ErrCorrupt", err)
	}
	if errors.Is(err, squall.ErrNoCheckpoint) {
		t.Fatalf("error %v claims no checkpoint existed", err)
	}
}

// ioErrBackend fails every Load with a transient (non-corrupt) error.
type ioErrBackend struct {
	squall.Backend
}

var errTransient = errors.New("backend briefly unreachable")

func (b ioErrBackend) Load(gen uint64) ([]squall.Blob, error) { return nil, errTransient }

// TestRestoreAbortsOnIOError: a retryable I/O failure must abort the
// restore — falling past it to an older generation would silently
// resurrect stale state when the newest checkpoint is actually fine.
func TestRestoreAbortsOnIOError(t *testing.T) {
	pred := squall.EquiJoin("eq", nil)
	rng := rand.New(rand.NewSource(44))
	tuples := mixedInput(rng, 2400, 43)
	backend := squall.NewMemBackend()
	_, _ = runToTwoCheckpoints(t, backend, pred, tuples)

	_, _, err := squall.Restore(ioErrBackend{backend}, pred, newShardLog(64).sink())
	if !errors.Is(err, errTransient) {
		t.Fatalf("restore error %v does not surface the I/O failure", err)
	}
	if errors.Is(err, squall.ErrCorrupt) {
		t.Fatalf("transient I/O error misclassified as corruption: %v", err)
	}
}

// TestRestoreDeltaChainAcrossMigration: an adaptive run commits a full
// base, migrates off the square mapping under an S flood, then commits
// two more (delta) generations. Restoring the head generation loads
// the whole base+delta chain — including joiner payloads degraded to
// full by the migration's state rebuild — and replay completes it to
// the exact oracle result.
func TestRestoreDeltaChainAcrossMigration(t *testing.T) {
	pred := squall.EquiJoin("eq", nil)
	rng := rand.New(rand.NewSource(45))
	tuples := lopsidedInput(rng, 150, 6000, 40)
	backend, err := squall.NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	run1 := newShardLog(64)
	op := newOperator(pred, run1.sink(),
		squall.WithJoiners(16), squall.WithAdaptive(), squall.WithWarmup(500), squall.WithSeed(23),
		squall.WithBackend(backend))
	op.Start()
	feed := func(ts []squall.Tuple) {
		for _, tp := range ts {
			if err := op.Send(tp); err != nil {
				t.Fatalf("send: %v", err)
			}
		}
	}
	feed(tuples[:400])
	if err := op.Checkpoint(); err != nil { // full base, pre-migration
		t.Fatalf("checkpoint 1: %v", err)
	}
	feed(tuples[400:3000])                  // the flood that forces the migration
	if err := op.Checkpoint(); err != nil { // delta straddling the migration
		t.Fatalf("checkpoint 2: %v", err)
	}
	feed(tuples[3000:5000])
	if err := op.Checkpoint(); err != nil { // second delta
		t.Fatalf("checkpoint 3: %v", err)
	}
	feed(tuples[5000:])
	if err := op.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	if op.Metrics().Migrations.Load() == 0 {
		t.Fatal("the flood never migrated the mapping; the chain straddles nothing")
	}

	gens, err := backend.Generations()
	if err != nil || len(gens) == 0 {
		t.Fatalf("generations: %v, %v", gens, err)
	}
	blobs, err := backend.Load(gens[0])
	if err != nil {
		t.Fatalf("load head generation: %v", err)
	}
	if len(blobs) < 2 {
		t.Fatalf("head generation resolves to %d blobs; expected a base+delta chain", len(blobs))
	}

	info := recoverAndCheck(t, backend, pred, op, run1, tuples)
	if info.CheckpointID != gens[0] {
		t.Fatalf("restored generation %d, want head %d", info.CheckpointID, gens[0])
	}
}
