package core

import (
	"context"

	"repro/internal/join"
	"repro/internal/metrics"
)

// Engine is the driving surface of the Operator, on its grid or its
// hash (SHJ) route. Sinks, metrics collectors, the pipeline layer, and
// the bench/experiment harnesses drive an Engine without knowing which
// route is behind it.
//
// The lifecycle is Start (or StartContext) → Send/SendBatch → Finish.
// Send and SendBatch return ErrFinished after Finish and the
// cancellation cause after the engine's context is cancelled or a task
// fails; Finish drains, stops every task, and returns the first task
// error (context cancellation included).
type Engine interface {
	// Start launches the engine's tasks with a background context.
	Start()
	// StartContext launches the engine's tasks under ctx: cancellation
	// stops every task promptly and surfaces through Send, SendBatch,
	// and Finish.
	StartContext(ctx context.Context)
	// Send feeds one tuple, blocking under backpressure.
	Send(join.Tuple) error
	// SendBatch feeds a run of tuples through the batched ingest front
	// end; it is equivalent to sending each tuple in order.
	SendBatch([]join.Tuple) error
	// Finish closes the input, drains, stops all tasks, and returns
	// the first task error.
	Finish() error
	// Metrics exposes the engine's counters.
	Metrics() *metrics.Operator
}

var _ Engine = (*Operator)(nil)
