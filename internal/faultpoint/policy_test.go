// Checkpoint failure policies: under Degrade the operator rides out a
// backend outage — joining continues, the replay log stays untrimmed,
// CheckpointFailures counts each failed boundary, and the first
// successful checkpoint trims the log again. Under FailStop a failed
// commit kills the operator and the error surfaces from Finish.
package faultpoint_test

import (
	"errors"
	"math/rand"
	"testing"

	squall "repro"
)

func TestCheckpointDegradePolicy(t *testing.T) {
	pred := squall.EquiJoin("eq", nil)
	rng := rand.New(rand.NewSource(51))
	tuples := mixedInput(rng, 3000, 47)
	want := oracle(pred, tuples)

	mem := squall.NewMemBackend()
	flaky := squall.NewFlakyBackend(mem, 0, 55)
	run := newShardLog(64)
	// CheckpointKeep 1 makes the trim horizon the newest committed
	// generation, so the first post-outage success visibly shrinks the
	// log (with a deeper keep the horizon trails the fallback set).
	op := newOperator(pred, run.sink(),
		squall.WithJoiners(4), squall.WithSeed(17), squall.WithBackend(flaky),
		squall.WithCheckpointPolicy(squall.Degrade), squall.WithCheckpointKeep(1))
	op.Start()
	feed := func(ts []squall.Tuple) {
		for _, tp := range ts {
			if err := op.Send(tp); err != nil {
				t.Fatalf("send during degraded window: %v", err)
			}
		}
	}

	feed(tuples[:1000])
	if err := op.Checkpoint(); err != nil {
		t.Fatalf("healthy checkpoint: %v", err)
	}
	trimmedLen := op.ReplayLog().Len()

	// 100%-failure window: every commit fails, the operator keeps
	// joining, and each failed boundary is counted.
	flaky.SetErrRate(1)
	feed(tuples[1000:2000])
	if err := op.Checkpoint(); !errors.Is(err, squall.ErrInjected) {
		t.Fatalf("checkpoint during outage: %v, want ErrInjected", err)
	}
	feed(tuples[2000:2500])
	if err := op.Checkpoint(); !errors.Is(err, squall.ErrInjected) {
		t.Fatalf("second checkpoint during outage: %v, want ErrInjected", err)
	}
	if got := op.Metrics().CheckpointFailures.Load(); got != 2 {
		t.Fatalf("CheckpointFailures = %d, want 2", got)
	}
	degradedLen := op.ReplayLog().Len()
	if degradedLen <= trimmedLen {
		t.Fatalf("replay log did not grow through the outage: %d then %d", trimmedLen, degradedLen)
	}

	// Outage over: the next checkpoint commits and trims the log.
	flaky.SetErrRate(0)
	if err := op.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after outage: %v", err)
	}
	if after := op.ReplayLog().Len(); after >= degradedLen {
		t.Fatalf("first successful checkpoint did not trim the log: %d then %d", degradedLen, after)
	}

	feed(tuples[2500:])
	if err := op.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	got := make(map[uKey]int)
	for _, ps := range run.pairs {
		countInto(got, ps)
	}
	checkMultiset(t, got, want)

	// The post-outage checkpoint is restorable: no durability was
	// silently lost while degraded.
	if _, info, err := squall.Restore(flaky, pred, newShardLog(64).sink()); err != nil {
		t.Fatalf("restore after degraded run: %v", err)
	} else if len(info.SkippedGenerations) != 0 {
		t.Fatalf("clean restore skipped generations %v", info.SkippedGenerations)
	}
}

func TestCheckpointFailStopPolicy(t *testing.T) {
	pred := squall.EquiJoin("eq", nil)
	rng := rand.New(rand.NewSource(52))
	tuples := mixedInput(rng, 2000, 47)

	mem := squall.NewMemBackend()
	flaky := squall.NewFlakyBackend(mem, 0, 56)
	op := newOperator(pred, newShardLog(64).sink(),
		squall.WithJoiners(4), squall.WithSeed(19), squall.WithBackend(flaky),
		squall.WithCheckpointPolicy(squall.FailStop))
	op.Start()
	for _, tp := range tuples[:1000] {
		if err := op.Send(tp); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	if err := op.Checkpoint(); err != nil {
		t.Fatalf("healthy checkpoint: %v", err)
	}

	flaky.SetErrRate(1)
	if err := op.Checkpoint(); err == nil {
		t.Fatal("fail-stop checkpoint returned nil through a dead backend")
	}
	if err := op.Finish(); !errors.Is(err, squall.ErrInjected) {
		t.Fatalf("finish after fail-stop: %v, want the wrapped commit error", err)
	}
	if got := op.Metrics().CheckpointFailures.Load(); got != 1 {
		t.Fatalf("CheckpointFailures = %d, want 1", got)
	}
}
