// Package faultpoint_test is the crash-recovery harness: it kills a
// live operator at each armed faultpoint, restores from the backend's
// latest committed checkpoint, replays the retained ingest log, and
// checks the combined output against a nested-loop oracle — the
// end-to-end exactness contract of the durability layer.
package faultpoint_test

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	squall "repro"
	"repro/internal/exact"
	"repro/internal/faultpoint"
)

// uKey identifies a result pair by the user-assigned unique ids of its
// members. Sequence numbers are reassigned when unsent tuples are
// re-fed to the restored operator, so pair identity must ride a field
// the harness controls.
type uKey [2]uint64

// shardLog records emitted pairs' uKeys per sink shard in emission
// order: per-shard order is what lets the harness truncate a shard's
// stream to a checkpoint's emitted-count cut. It takes no lock: the
// Sharded contract serializes same-shard calls, so under -race a
// violation shows as a data race.
type shardLog struct {
	keys [][]uKey
}

func newShardLog(shards int) *shardLog {
	return &shardLog{keys: make([][]uKey, shards)}
}

func (l *shardLog) emit(shard int, ps []squall.Pair) {
	for _, p := range ps {
		l.keys[shard] = append(l.keys[shard], uKey{p.R.U, p.S.U})
	}
}

func (l *shardLog) sink() squall.Sink { return squall.Sharded(l.emit) }

// cut is every shard's keys, shard i truncated to cuts[i] (none past
// len(cuts)); a nil cuts keeps them all.
func (l *shardLog) cut(cuts []int64) []uKey {
	var out []uKey
	for shard, ks := range l.keys {
		n := int64(len(ks))
		if cuts != nil {
			n = 0
			if shard < len(cuts) {
				n = min(cuts[shard], int64(len(ks)))
			}
		}
		out = append(out, ks[:n]...)
	}
	return out
}

// newOperator builds a single-grid operator from options.
func newOperator(pred squall.Predicate, sink squall.Sink, opts ...squall.Option) *squall.Operator {
	return squall.NewEngine(pred, sink, opts...).(*squall.Operator)
}

// oracle is exact's pair multiset over the full input, keyed by the
// members' U ids: a sort-merge for a residual-free equi or band
// predicate, a nested loop over Matches otherwise.
func oracle(pred squall.Predicate, tuples []squall.Tuple) []uKey {
	var sides [2][]squall.Tuple
	for _, t := range tuples {
		sides[t.Rel] = append(sides[t.Rel], t)
	}
	pair := func(r, s *squall.Tuple) uKey { return uKey{r.U, s.U} }
	if pred.Residual != nil || pred.Kind == squall.KindTheta {
		match := func(r, s *squall.Tuple) bool { return pred.Matches(*r, *s) }
		return exact.Theta(sides[squall.SideR], sides[squall.SideS], match, pair)
	}
	w := pred.Width
	if pred.Kind == squall.KindEqui {
		w = 0
	}
	key := func(t *squall.Tuple) (int64, bool) { return t.Key, !t.Dummy }
	return exact.Band(sides[squall.SideR], sides[squall.SideS], w, key, pair)
}

// mixedInput builds an interleaved two-sided stream with unique U ids.
func mixedInput(rng *rand.Rand, n int, keys int64) []squall.Tuple {
	out := make([]squall.Tuple, n)
	for i := range out {
		out[i] = squall.Tuple{
			Rel:  squall.Side(i % 2),
			Key:  rng.Int63n(keys),
			Size: 8,
			U:    uint64(i + 1),
		}
	}
	return out
}

// lopsidedInput is a small R prefix followed by an S flood: the stream
// shape that forces the adaptive controller to migrate off the square
// mapping.
func lopsidedInput(rng *rand.Rand, nR, nS int, keys int64) []squall.Tuple {
	out := make([]squall.Tuple, 0, nR+nS)
	for i := 0; i < nR; i++ {
		out = append(out, squall.Tuple{Rel: squall.SideR, Key: rng.Int63n(keys), Size: 8, U: uint64(len(out) + 1)})
	}
	for i := 0; i < nS; i++ {
		out = append(out, squall.Tuple{Rel: squall.SideS, Key: rng.Int63n(keys), Size: 8, U: uint64(len(out) + 1)})
	}
	return out
}

// crashAndRecover drives one full kill/restore/replay cycle:
//
//  1. feed a prefix and commit a clean baseline checkpoint,
//  2. arm the faultpoint and keep feeding (plus, for barrier points,
//     request the checkpoint that walks into the crash),
//  3. collect every tuple whose Send errored — the contract is
//     Send(t) == nil ⇔ t is in the replay log, so errored sends are
//     the caller's to re-send,
//  4. restore from the backend, replay the dead operator's log, re-send
//     the unsent tail, and finish,
//  5. splice shard i of run 1 cut at the restored checkpoint's
//     Emitted[i] with all of run 2 and compare against the oracle.
func crashAndRecover(t *testing.T, point string, pred squall.Predicate, tuples []squall.Tuple, ckptAt, armAt int, opts ...squall.Option) {
	crashAndRecoverBackend(t, point, pred, tuples, ckptAt, armAt, nil, opts...)
}

// crashAndRecoverBackend is crashAndRecover with a backend decorator:
// wrap (nil = identity) interposes on the FileBackend both for the
// live operator's commits and for the restore walk, so the whole
// cycle can run through a flaky/retrying storage stack.
func crashAndRecoverBackend(t *testing.T, point string, pred squall.Predicate, tuples []squall.Tuple, ckptAt, armAt int, wrap func(squall.Backend) squall.Backend, opts ...squall.Option) {
	t.Helper()
	defer faultpoint.Reset()

	want := oracle(pred, tuples)
	dir := t.TempDir()
	fileBackend, err := squall.NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	var backend squall.Backend = fileBackend
	if wrap != nil {
		backend = wrap(backend)
	}

	run1 := newShardLog(64)
	op := newOperator(pred, run1.sink(), append(opts, squall.WithBackend(backend))...)
	op.Start()

	send := func(ts []squall.Tuple, unsent *[]squall.Tuple) {
		for _, tp := range ts {
			if err := op.Send(tp); err != nil {
				if unsent == nil {
					t.Fatalf("pre-crash send failed: %v", err)
				}
				*unsent = append(*unsent, tp)
			}
		}
	}

	send(tuples[:ckptAt], nil)
	if err := op.Checkpoint(); err != nil {
		t.Fatalf("baseline checkpoint: %v", err)
	}
	send(tuples[ckptAt:armAt], nil)

	faultpoint.Arm(point)
	var unsent []squall.Tuple
	if point != faultpoint.MidMigration {
		// Walk a checkpoint into the armed barrier/commit crash. The
		// request may observe the crash (error) or win the race with its
		// own commit (nil) — both are legitimate outcomes of a kill.
		_ = op.Checkpoint()
	}
	send(tuples[armAt:], &unsent)
	_ = op.Finish() // the runner died; the error is expected

	if faultpoint.Active(point) {
		t.Fatalf("faultpoint %q never fired — the scenario did not reach it", point)
	}
	if tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(tmp) != 0 {
		t.Fatalf("crash leaked backend temp files: %v", tmp)
	}

	run2 := newShardLog(64)
	op2, info, err := squall.Restore(backend, pred, run2.sink())
	if err != nil {
		t.Fatalf("restore after %s: %v", point, err)
	}
	op2.Start()
	if err := op2.ReplayFrom(op.ReplayLog()); err != nil {
		t.Fatalf("replay: %v", err)
	}
	for _, tp := range unsent {
		if err := op2.Send(tp); err != nil {
			t.Fatalf("re-send after restore: %v", err)
		}
	}
	if err := op2.Finish(); err != nil {
		t.Fatalf("finish restored operator: %v", err)
	}

	exact.Equal(t, append(run1.cut(info.Emitted), run2.cut(nil)...), want)
}

func TestRecoveryFromCrashPoints(t *testing.T) {
	pred := squall.EquiJoin("eq", nil)
	for _, point := range []string{
		faultpoint.BeforeBarrier,
		faultpoint.AfterBarrier,
		faultpoint.MidSnapshot,
		// The checkpoint walked into the crash is a delta (the baseline
		// committed a full base), so MidDeltaCommit kills the backend in
		// the orphan-tail-blob window and restore falls back to the base.
		faultpoint.MidDeltaCommit,
	} {
		t.Run(point, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			tuples := mixedInput(rng, 3000, 53)
			crashAndRecover(t, point, pred, tuples, 1200, 2100, squall.WithJoiners(8), squall.WithSeed(11))
		})
	}
}

// TestRecoveryFromCrashAfterGCPrune runs the gc-before-fallback point
// with CheckpointKeep 1: the armed checkpoint's commit prunes the
// baseline generation and the crash lands right after, so restore must
// succeed from the shrunken retained set (the delta manifest pins the
// pruned base's blob).
func TestRecoveryFromCrashAfterGCPrune(t *testing.T) {
	pred := squall.EquiJoin("eq", nil)
	rng := rand.New(rand.NewSource(36))
	tuples := mixedInput(rng, 3000, 53)
	crashAndRecover(t, faultpoint.GCBeforeFallback, pred, tuples, 1200, 2100,
		squall.WithJoiners(8), squall.WithSeed(11), squall.WithCheckpointKeep(1))
}

// TestRecoveryFromCrashPointsFlakyBackend replays the crash matrix
// through a flaky storage service smoothed by a RetryBackend: every
// commit and every restore read rides probabilistic injected errors.
// OpTimeout is disabled so backend calls stay on the runner's
// goroutine — the armed crash must surface as a task death, not kill
// the retry helper goroutine.
func TestRecoveryFromCrashPointsFlakyBackend(t *testing.T) {
	pred := squall.EquiJoin("eq", nil)
	for _, point := range []string{
		faultpoint.BeforeBarrier,
		faultpoint.AfterBarrier,
		faultpoint.MidSnapshot,
		faultpoint.MidDeltaCommit,
		faultpoint.GCBeforeFallback,
	} {
		t.Run(point, func(t *testing.T) {
			rng := rand.New(rand.NewSource(37))
			tuples := mixedInput(rng, 3000, 53)
			wrap := func(inner squall.Backend) squall.Backend {
				flaky := squall.NewFlakyBackend(inner, 0.3, 101)
				return squall.NewRetryBackend(flaky, squall.RetryOptions{
					MaxRetries: 12,
					BaseDelay:  time.Millisecond,
					MaxDelay:   4 * time.Millisecond,
					OpTimeout:  -1,
					Seed:       5,
				})
			}
			crashAndRecoverBackend(t, point, pred, tuples, 1200, 2100, wrap, squall.WithJoiners(8), squall.WithSeed(11))
		})
	}
}

// TestRecoveryFromCrashMidMigration checkpoints before the adaptive
// warmup threshold, then lets the S flood trigger a migration with the
// mid-migration crash armed: the checkpoint straddles the migration
// the crash interrupts.
func TestRecoveryFromCrashMidMigration(t *testing.T) {
	pred := squall.EquiJoin("eq", nil)
	rng := rand.New(rand.NewSource(32))
	tuples := lopsidedInput(rng, 150, 6000, 40)
	crashAndRecover(t, faultpoint.MidMigration, pred, tuples, 400, 450,
		squall.WithJoiners(16), squall.WithAdaptive(), squall.WithWarmup(500), squall.WithSeed(13))
}

// TestRecoveryFromCorruptCheckpoint commits a checkpoint whose blob was
// corrupted in flight (tail truncated, or one byte flipped after the
// checksums were computed): Restore must refuse it with ErrCorrupt —
// never panic, never restore silently-wrong state — and a from-scratch
// rerun of the full input must still match the oracle.
func TestRecoveryFromCorruptCheckpoint(t *testing.T) {
	pred := squall.EquiJoin("eq", nil)
	for _, point := range []string{faultpoint.TruncatedSegment, faultpoint.FlippedCRC} {
		t.Run(point, func(t *testing.T) {
			defer faultpoint.Reset()
			rng := rand.New(rand.NewSource(33))
			tuples := mixedInput(rng, 2000, 47)
			want := oracle(pred, tuples)

			backend, err := squall.NewFileBackend(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			run1 := newShardLog(64)
			op := newOperator(pred, run1.sink(), squall.WithJoiners(4), squall.WithSeed(7), squall.WithBackend(backend))
			op.Start()
			for _, tp := range tuples[:1000] {
				if err := op.Send(tp); err != nil {
					t.Fatalf("send: %v", err)
				}
			}
			faultpoint.Arm(point)
			// The write path cannot see the corruption, so the checkpoint
			// "commits" and the operator sails on unharmed.
			if err := op.Checkpoint(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			if faultpoint.Active(point) {
				t.Fatalf("faultpoint %q never fired", point)
			}
			for _, tp := range tuples[1000:] {
				if err := op.Send(tp); err != nil {
					t.Fatalf("send: %v", err)
				}
			}
			if err := op.Finish(); err != nil {
				t.Fatalf("finish: %v", err)
			}
			// The undamaged first run is exact.
			exact.Equal(t, run1.cut(nil), want)

			// Restore must detect the rot.
			if _, _, rerr := squall.Restore(backend, pred, newShardLog(64).sink()); rerr == nil {
				t.Fatal("restore accepted a corrupt checkpoint")
			} else if !errors.Is(rerr, squall.ErrCorrupt) {
				t.Fatalf("restore error %v does not wrap ErrCorrupt", rerr)
			}

			// With no usable checkpoint, recovery is a from-scratch rerun.
			run3 := newShardLog(64)
			op3 := newOperator(pred, run3.sink(), squall.WithJoiners(4), squall.WithSeed(7))
			op3.Start()
			for _, tp := range tuples {
				if err := op3.Send(tp); err != nil {
					t.Fatalf("rerun send: %v", err)
				}
			}
			if err := op3.Finish(); err != nil {
				t.Fatalf("rerun finish: %v", err)
			}
			exact.Equal(t, run3.cut(nil), want)
		})
	}
}

// TestRestoreEmptyBackend: restoring from a backend that never
// committed reports ErrNoCheckpoint.
func TestRestoreEmptyBackend(t *testing.T) {
	backend, err := squall.NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, _, rerr := squall.Restore(backend, squall.EquiJoin("eq", nil), nil)
	if !errors.Is(rerr, squall.ErrNoCheckpoint) {
		t.Fatalf("restore of empty backend: %v, want ErrNoCheckpoint", rerr)
	}
}

// spillFiles globs the spill segments a crashed or cancelled operator
// could leak in its storage directory.
func spillFiles(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "squall-spill-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// waitForSpill blocks until the joiners (which process asynchronously
// behind Send) have opened at least one spill segment.
func waitForSpill(t *testing.T, dir string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(spillFiles(t, dir)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("operator never spilled; the leak test needs spill segments in play")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCrashedOperatorLeaksNoSpillFiles kills a spilling operator at a
// barrier faultpoint and checks that every spill segment was removed by
// the teardown path (joiner deferred closes plus the post-Wait sweep).
func TestCrashedOperatorLeaksNoSpillFiles(t *testing.T) {
	defer faultpoint.Reset()
	spillDir := t.TempDir()
	rng := rand.New(rand.NewSource(34))
	pred := squall.EquiJoin("eq", nil)
	op := newOperator(pred, nil, squall.WithJoiners(4), squall.WithSeed(3),
		squall.WithBackend(squall.NewMemBackend()),
		squall.WithStorage(squall.StorageConfig{CapBytes: 256, Dir: spillDir}))
	op.Start()
	for _, tp := range mixedInput(rng, 1500, 31) {
		if err := op.Send(tp); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	waitForSpill(t, spillDir)
	faultpoint.Arm(faultpoint.BeforeBarrier)
	_ = op.Checkpoint() // crashes a joiner mid-barrier
	_ = op.Finish()     // runner error expected; teardown must still sweep
	if faultpoint.Active(faultpoint.BeforeBarrier) {
		t.Fatal("faultpoint never fired")
	}
	if segs := spillFiles(t, spillDir); len(segs) != 0 {
		t.Fatalf("crashed operator leaked spill segments: %v", segs)
	}
}

// TestCancelledOperatorLeaksNoSpillFiles covers the cancellation
// teardown path of the same contract.
func TestCancelledOperatorLeaksNoSpillFiles(t *testing.T) {
	spillDir := t.TempDir()
	rng := rand.New(rand.NewSource(35))
	pred := squall.EquiJoin("eq", nil)
	op := newOperator(pred, nil, squall.WithJoiners(4), squall.WithSeed(3),
		squall.WithStorage(squall.StorageConfig{CapBytes: 256, Dir: spillDir}))
	ctx, cancel := context.WithCancel(context.Background())
	op.StartContext(ctx)
	for _, tp := range mixedInput(rng, 1500, 31) {
		if err := op.Send(tp); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	waitForSpill(t, spillDir)
	cancel()
	if err := op.Finish(); err == nil {
		t.Fatal("finish after cancel returned nil")
	}
	if segs := spillFiles(t, spillDir); len(segs) != 0 {
		t.Fatalf("cancelled operator leaked spill segments: %v", segs)
	}
}

// TestFaultpointRegistry pins the armable-name surface the joinrun
// -crash-at flag validates against.
func TestFaultpointRegistry(t *testing.T) {
	names := faultpoint.Names()
	wantNames := []string{
		faultpoint.BeforeBarrier, faultpoint.AfterBarrier, faultpoint.MidSnapshot,
		faultpoint.MidMigration, faultpoint.MidDeltaCommit, faultpoint.GCBeforeFallback,
		faultpoint.TruncatedSegment, faultpoint.FlippedCRC,
	}
	if len(names) != len(wantNames) {
		t.Fatalf("Names() = %v, want %d points", names, len(wantNames))
	}
	for _, w := range wantNames {
		if !faultpoint.Known(w) {
			t.Fatalf("point %q not known", w)
		}
	}
	if faultpoint.Known("no-such-point") {
		t.Fatal("unknown point reported as known")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Arm of an unknown point did not panic")
		}
	}()
	faultpoint.Arm("no-such-point")
}
