package dataflow

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestQueueFIFO(t *testing.T) {
	q := NewQueue[int]()
	for i := 0; i < 100; i++ {
		q.Push(i)
	}
	for i := 0; i < 100; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d: got %d ok=%v", i, v, ok)
		}
	}
	if q.Count() != 100 {
		t.Fatalf("Count=%d", q.Count())
	}
}

func TestQueuePopBlocksUntilPush(t *testing.T) {
	q := NewQueue[string]()
	done := make(chan string)
	go func() {
		v, _ := q.Pop()
		done <- v
	}()
	time.Sleep(5 * time.Millisecond)
	q.Push("x")
	select {
	case v := <-done:
		if v != "x" {
			t.Fatalf("got %q", v)
		}
	case <-time.After(time.Second):
		t.Fatal("Pop did not wake")
	}
}

func TestQueueCloseDrains(t *testing.T) {
	q := NewQueue[int]()
	q.Push(1)
	q.Close()
	if v, ok := q.Pop(); !ok || v != 1 {
		t.Fatal("items pushed before close must drain")
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop after drain of closed queue should fail")
	}
	q.Push(2) // dropped
	if q.Len() != 0 {
		t.Fatal("push after close should be dropped")
	}
	q.Close() // idempotent
}

func TestQueueTryPop(t *testing.T) {
	q := NewQueue[int]()
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty should fail")
	}
	q.Push(7)
	if v, ok := q.TryPop(); !ok || v != 7 {
		t.Fatal("TryPop should return the item")
	}
}

func TestQueuePerProducerOrder(t *testing.T) {
	q := NewQueue[[2]int]() // [producer, seq]
	const producers, per = 8, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.Push([2]int{p, i})
			}
		}(p)
	}
	wg.Wait()
	q.Close()
	last := make([]int, producers)
	for i := range last {
		last[i] = -1
	}
	for {
		v, ok := q.Pop()
		if !ok {
			break
		}
		if v[1] != last[v[0]]+1 {
			t.Fatalf("producer %d out of order: %d after %d", v[0], v[1], last[v[0]])
		}
		last[v[0]] = v[1]
	}
	for p, l := range last {
		if l != per-1 {
			t.Fatalf("producer %d drained to %d", p, l)
		}
	}
}

// The queue must not retain a burst's backing array after the burst is
// consumed. The old head-reslice (`items = items[1:]`) kept the entire
// backing array — and every popped element — reachable for the queue's
// lifetime; this is the regression test for the compact-and-shrink
// replacement.
func TestQueueShrinksAfterBurst(t *testing.T) {
	q := NewQueue[[]byte]()
	const burst = 8 * queueShrinkCap
	for i := 0; i < burst; i++ {
		q.Push(make([]byte, 64))
	}
	// Drain most of the burst: once the consumed prefix dominates the
	// large buffer, the live tail must have been compacted into a
	// right-sized allocation.
	for i := 0; i < burst-16; i++ {
		if _, ok := q.TryPop(); !ok {
			t.Fatalf("pop %d failed", i)
		}
	}
	q.mu.Lock()
	capAfter, headAfter, lenAfter := cap(q.items), q.head, len(q.items)
	q.mu.Unlock()
	if lenAfter-headAfter != 16 {
		t.Fatalf("live items = %d, want 16", lenAfter-headAfter)
	}
	if capAfter >= burst/2 {
		t.Fatalf("backing array cap %d still holds the burst (%d); consumed prefix not released", capAfter, burst)
	}
	// Fully drained, the oversized buffer must be dropped entirely.
	for i := 0; i < 16; i++ {
		q.TryPop()
	}
	q.mu.Lock()
	capDrained := cap(q.items)
	q.mu.Unlock()
	if capDrained > queueShrinkCap {
		t.Fatalf("drained queue retains cap %d > %d", capDrained, queueShrinkCap)
	}
}

// Consumed slots must be zeroed promptly so popped elements are
// collectable even before a compaction or drain resets the buffer.
func TestQueueZeroesConsumedSlots(t *testing.T) {
	q := NewQueue[*int]()
	for i := 0; i < 8; i++ {
		v := i
		q.Push(&v)
	}
	q.TryPop()
	q.TryPop()
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := 0; i < q.head; i++ {
		if q.items[i] != nil {
			t.Fatalf("consumed slot %d still pins its element", i)
		}
	}
}

// A small queue keeps reusing its buffer in place instead of
// reallocating per cycle.
func TestQueueReusesSmallBuffer(t *testing.T) {
	q := NewQueue[int]()
	for round := 0; round < 50; round++ {
		for i := 0; i < 32; i++ {
			q.Push(i)
		}
		for i := 0; i < 32; i++ {
			if v, ok := q.TryPop(); !ok || v != i {
				t.Fatalf("round %d pop %d: got %d ok=%v", round, i, v, ok)
			}
		}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head != 0 || len(q.items) != 0 {
		t.Fatalf("drained queue not reset: head=%d len=%d", q.head, len(q.items))
	}
	if cap(q.items) > queueShrinkCap {
		t.Fatalf("small workload grew cap to %d", cap(q.items))
	}
}

func TestRunnerCollectsErrors(t *testing.T) {
	var r Runner
	sentinel := errors.New("boom")
	r.Go("ok", func() error { return nil })
	r.Go("bad", func() error { return sentinel })
	err := r.Wait()
	if !errors.Is(err, sentinel) {
		t.Fatalf("Wait err = %v", err)
	}
	if len(r.Errs()) != 1 {
		t.Fatalf("Errs = %v", r.Errs())
	}
}

func TestRunnerCapturesPanic(t *testing.T) {
	var r Runner
	r.Go("panicky", func() error { panic("kaboom") })
	err := r.Wait()
	if err == nil {
		t.Fatal("panic not converted to error")
	}
}

func TestRunnerNoError(t *testing.T) {
	var r Runner
	for i := 0; i < 10; i++ {
		r.Go("worker", func() error { return nil })
	}
	if err := r.Wait(); err != nil {
		t.Fatalf("Wait = %v", err)
	}
}

// Cancel must unblock tasks waiting on Done and surface the cause
// through Err and Wait.
func TestRunnerCancelUnblocks(t *testing.T) {
	var r Runner
	sentinel := errors.New("stop now")
	r.Go("blocked", func() error {
		<-r.Done()
		return nil
	})
	r.Cancel(sentinel)
	if err := r.Wait(); !errors.Is(err, sentinel) {
		t.Fatalf("Wait = %v, want %v", err, sentinel)
	}
	if err := r.Err(); !errors.Is(err, sentinel) {
		t.Fatalf("Err = %v, want %v", err, sentinel)
	}
}

// A failing task must cancel the runner so sibling tasks blocked on its
// channels can exit instead of deadlocking Wait.
func TestRunnerTaskFailureCancelsSiblings(t *testing.T) {
	var r Runner
	sentinel := errors.New("task died")
	r.Go("sibling", func() error {
		select {
		case <-r.Done():
			return nil
		case <-time.After(5 * time.Second):
			return errors.New("sibling never unblocked")
		}
	})
	r.Go("failing", func() error { return sentinel })
	if err := r.Wait(); !errors.Is(err, sentinel) {
		t.Fatalf("Wait = %v, want %v", err, sentinel)
	}
}
