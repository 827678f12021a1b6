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

// dataEnv builds a data envelope of one relation's tuples for a
// hand-driven joiner, holding the one reference handleBatch releases.
func dataEnv(epoch uint32, probeOnly bool, ts ...join.Tuple) *envelope {
	e := getEnvelope(len(ts))
	e.hdr = message{kind: kTuple, epoch: epoch, probeOnly: probeOnly}
	for _, t := range ts {
		e.tuples = append(e.tuples, t)
		e.bytes += t.Bytes()
	}
	e.refs.Store(1)
	return e
}

// ctrlEnv wraps a control message in a header-only envelope holding the
// one reference handleBatch releases.
func ctrlEnv(m message) *envelope {
	e := getEnvelope(0)
	e.hdr = m
	e.refs.Store(1)
	return e
}

// handReshuffler builds reshuffler 0 of an operator that was not
// started, for a test that drives routing and control by hand and reads
// the joiners' inboxes.
func handReshuffler(op *Operator) *reshuffler {
	return &reshuffler{
		mapping: op.cfg.Initial, table: append([]int(nil), op.ctl.table...),
		topo: op.topo, opm: op.met, batchSize: op.cfg.BatchSize, stop: op.stop,
	}
}
