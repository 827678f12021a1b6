package core

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/join"
	"repro/internal/matrix"
)

// stubRingOperator is the ingest edge alone: one source ring with a
// replay log, unbuffered so every hand-off meets the receiver, which
// the test plays as the reshuffler.
func stubRingOperator() *Operator {
	op := &Operator{
		sources: []chan []sourceItem{make(chan []sourceItem)},
		replay:  newReplayLog(1),
	}
	op.stop = op.runner.Done()
	return op
}

func stubEnvelope(n int) []sourceItem {
	env := getItems(n)
	for i := 0; i < n; i++ {
		env = append(env, sourceItem{t: join.Tuple{Rel: matrix.Side(i & 1), Key: int64(100 + i), Seq: uint64(i + 1), Size: 8}})
	}
	return env
}

func checkLogged(t *testing.T, op *Operator, n int) {
	t.Helper()
	items := op.replay.snapshotRing(0)
	if len(items) != n {
		t.Fatalf("replay log holds %d items, want %d", len(items), n)
	}
	for i, it := range items {
		if it.t.Seq != uint64(i+1) || it.t.Key != int64(100+i) {
			t.Fatalf("replay log item %d is %+v: the envelope was recycled before it was logged", i, it.t)
		}
	}
}

// TestReplayLogSurvivesEnvelopeRecycle pins the ingest edge's hand-off
// order: the replay log must copy a source envelope before the ring
// send hands it to the reshuffler, which recycles it (putItems zeroes
// it) as soon as it has routed it. The stub reshuffler recycles the
// envelope the moment it receives it. On one core the blocked sender
// resumes only after that, so a log appended after the send holds zero
// tuples — deterministically, where on several cores it was a rare
// race the race detector cannot see (a pool recycle is no data race).
func TestReplayLogSurvivesEnvelopeRecycle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 8
	recycle := func(op *Operator, ready chan<- struct{}, done chan<- struct{}) {
		close(ready)
		env := <-op.sources[0]
		putItems(env)
		close(done)
	}

	t.Run("push", func(t *testing.T) {
		op := stubRingOperator()
		ready, done := make(chan struct{}), make(chan struct{})
		go recycle(op, ready, done)
		// The sender blocks in the send before the stub runs; the stub
		// then takes the envelope and recycles it before the sender is
		// scheduled again.
		if err := op.push(0, stubEnvelope(n)); err != nil {
			t.Fatal(err)
		}
		<-done
		checkLogged(t, op, n)
	})

	t.Run("trySend", func(t *testing.T) {
		op := stubRingOperator()
		ready, done := make(chan struct{}), make(chan struct{})
		go recycle(op, ready, done)
		<-ready
		// A non-blocking send needs the stub parked in its receive.
		env := stubEnvelope(n)
		for !op.trySend(0, env) {
			checkLogged(t, op, 0)
			runtime.Gosched()
		}
		<-done
		checkLogged(t, op, n)
	})

	t.Run("undelivered", func(t *testing.T) {
		op := stubRingOperator()
		if op.trySend(0, stubEnvelope(n)) {
			t.Fatal("trySend delivered with no reshuffler receiving")
		}
		checkLogged(t, op, 0)
		op.runner.Cancel(errors.New("stopped"))
		if err := op.push(0, stubEnvelope(n)); err == nil {
			t.Fatal("push on a stopped operator reported delivery")
		}
		checkLogged(t, op, 0)
	})
}
