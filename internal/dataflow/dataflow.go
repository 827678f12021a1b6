// Package dataflow is the minimal stream-processing substrate the
// operator runs on — the role Storm plays for Squall in the paper's
// evaluation (§5). It provides FIFO links with per-sender ordering,
// an unbounded MPSC queue for migration traffic (so joiners never
// deadlock exchanging state), and a task runner with panic capture.
// Everything is built on goroutines and channels: one joiner task per
// simulated machine, as in the paper's task assignment, and one
// reshuffler task per core (at most one per machine).
package dataflow

import (
	"context"
	"fmt"
	"sync"
)

// Queue is an unbounded multi-producer single-consumer FIFO. Sends
// never block, which is essential for the non-blocking migration
// protocol: two joiners exchanging state must never block on each
// other's inboxes. Per-producer FIFO order is preserved (each producer
// appends under the same lock).
//
// Storage is a single slice with a consumed-head index rather than a
// head reslice (`items = items[1:]`): reslicing advances the slice
// base but keeps the whole backing array — and every popped element —
// reachable for as long as the queue lives, so a burst's memory is
// retained indefinitely. The head index lets the buffer be reused in
// place (head resets to 0 whenever the queue drains) and compacted or
// shrunk when the consumed prefix dominates the backing array.
type Queue[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []T
	head   int // items[:head] are consumed and zeroed
	closed bool
	count  int64
}

// queueShrinkCap is the backing-array capacity above which a mostly
// drained queue re-allocates a right-sized buffer instead of
// compacting in place, returning a burst's memory to the collector.
const queueShrinkCap = 1024

// NewQueue returns an empty queue.
func NewQueue[T any]() *Queue[T] {
	q := &Queue[T]{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push appends an item. Push on a closed queue is a no-op (late
// messages during shutdown are dropped deliberately).
func (q *Queue[T]) Push(v T) {
	q.mu.Lock()
	if !q.closed {
		q.items = append(q.items, v)
		q.count++
		q.cond.Signal()
	}
	q.mu.Unlock()
}

// popLocked removes the head item; the caller guarantees one exists.
func (q *Queue[T]) popLocked() T {
	var zero T
	v := q.items[q.head]
	q.items[q.head] = zero // drop the reference; popped items must be collectable
	q.head++
	if q.head == len(q.items) {
		// Drained: reuse the buffer from the start, unless it grew past
		// the shrink bound — then release it entirely.
		if cap(q.items) > queueShrinkCap {
			q.items = nil
		} else {
			q.items = q.items[:0]
		}
		q.head = 0
	} else if q.head > queueShrinkCap && q.head > len(q.items)/2 {
		// The consumed prefix dominates a large buffer: compact the
		// live tail into a smaller allocation so the old backing array
		// (twice the live volume or more) is released. Half the live
		// length of headroom keeps the very next Push from immediately
		// reallocating what was just compacted.
		n := len(q.items) - q.head
		live := make([]T, n, n+n/2+1)
		copy(live, q.items[q.head:])
		q.items = live
		q.head = 0
	}
	return v
}

// Pop removes the head item, blocking until one is available or the
// queue is closed and drained; ok is false in the latter case.
func (q *Queue[T]) Pop() (v T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.items) && !q.closed {
		q.cond.Wait()
	}
	if q.head == len(q.items) {
		return v, false
	}
	return q.popLocked(), true
}

// TryPop removes the head item without blocking; ok is false if the
// queue is currently empty (whether or not it is closed).
func (q *Queue[T]) TryPop() (v T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head == len(q.items) {
		return v, false
	}
	return q.popLocked(), true
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items) - q.head
}

// Count returns the total number of items ever pushed, a cheap message
// counter for network-traffic accounting.
func (q *Queue[T]) Count() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.count
}

// Close marks the queue closed and wakes blocked consumers. Close is
// idempotent.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		q.cond.Broadcast()
	}
	q.mu.Unlock()
}

// Runner manages a set of goroutines and collects the first error or
// panic. It plays the part of the Storm worker supervisor.
//
// A runner is also the topology's stop signal: Cancel (called on
// context cancellation, or automatically when any task fails) closes
// the Done channel, and every blocking channel operation in the
// operator selects on it — so one crashed joiner, or a cancelled
// context, unwinds the whole task set instead of deadlocking the
// survivors against a dead peer's inbox.
type Runner struct {
	wg   sync.WaitGroup
	mu   sync.Mutex
	errs []error
	done chan struct{}
	// stopped is true once done is closed; guarded by mu.
	stopped bool
}

// Go launches fn under the runner. Panics are converted to errors so a
// task crash fails the topology instead of the process, and any task
// failure cancels the runner so sibling tasks observe Done and exit
// rather than waiting forever on the dead task's channels.
func (r *Runner) Go(name string, fn func() error) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer func() {
			if p := recover(); p != nil {
				r.Cancel(fmt.Errorf("dataflow: task %s panicked: %v", name, p))
			}
		}()
		if err := fn(); err != nil {
			r.Cancel(fmt.Errorf("dataflow: task %s: %w", name, err))
		}
	}()
}

// doneLocked returns the done channel, creating it on first use so the
// zero-value Runner works.
func (r *Runner) doneLocked() chan struct{} {
	if r.done == nil {
		r.done = make(chan struct{})
	}
	return r.done
}

// Done returns a channel closed when the runner is cancelled — by a
// caller (context cancellation) or by a task failing. Tasks and
// blocking sends select on it as their stop signal.
func (r *Runner) Done() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.doneLocked()
}

// Cancel records cause (if non-nil) and stops the runner: Done closes
// and every task is expected to unwind. Cancel is idempotent; only the
// causes recorded before and including the first one are reported by
// Err, later ones append to Errs.
func (r *Runner) Cancel(cause error) {
	r.mu.Lock()
	if cause != nil {
		r.errs = append(r.errs, cause)
	}
	if !r.stopped {
		r.stopped = true
		close(r.doneLocked())
	}
	r.mu.Unlock()
}

// WatchContext bridges ctx cancellation into the runner: when ctx is
// cancelled the runner cancels with ctx's error. The watcher goroutine
// exits when finished closes (normal shutdown) or when the runner is
// cancelled by other means, so a long-lived parent ctx does not leak a
// goroutine per finished topology. A ctx that can never be cancelled
// installs no watcher.
func (r *Runner) WatchContext(ctx context.Context, finished <-chan struct{}) {
	if ctx == nil || ctx.Done() == nil {
		return
	}
	go func() {
		select {
		case <-ctx.Done():
			r.Cancel(ctx.Err())
		case <-finished:
		case <-r.Done():
		}
	}()
}

// Err returns the first recorded error, or nil. Unlike Wait it does
// not block, so in-flight senders can report why the topology stopped.
func (r *Runner) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.errs) > 0 {
		return r.errs[0]
	}
	if r.stopped {
		return context.Canceled
	}
	return nil
}

// Wait blocks until all tasks finish and returns the first recorded
// error, if any.
func (r *Runner) Wait() error {
	r.wg.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.errs) > 0 {
		return r.errs[0]
	}
	if r.stopped {
		return context.Canceled
	}
	return nil
}

// Errs returns all recorded errors after Wait.
func (r *Runner) Errs() []error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]error(nil), r.errs...)
}
