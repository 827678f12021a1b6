package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/join"
	"repro/internal/metrics"
)

func newTestSampler() *metrics.LatencySampler { return metrics.NewLatencySampler(16) }

// mustOperator is NewOperator for a configuration the test knows is
// valid.
func mustOperator(t testing.TB, cfg Config) *Operator {
	t.Helper()
	op, err := NewOperator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// mustGrouped is NewGrouped for a configuration the test knows is
// valid.
func mustGrouped(t testing.TB, cfg Config) *Grouped {
	t.Helper()
	gr, err := NewGrouped(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return gr
}

// counter is a sink adding each run's length to n.
func counter(n *atomic.Int64) join.EmitBatch {
	return func(ps []join.Pair) { n.Add(int64(len(ps))) }
}

func runOperatorWithLatency(t *testing.T, cfg Config, tuples []join.Tuple) (int64, *Operator) {
	t.Helper()
	var n atomic.Int64
	cfg.EmitBatch = counter(&n)
	op := mustOperator(t, cfg)
	op.Start()
	for _, tp := range tuples {
		op.Send(tp)
	}
	if err := op.Finish(); err != nil {
		t.Fatalf("operator error: %v", err)
	}
	return n.Load(), op
}
