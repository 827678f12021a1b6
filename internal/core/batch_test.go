package core

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exact"
	"repro/internal/join"
	"repro/internal/matrix"
)

// The batched message plane must be invisible to the join semantics:
// any batch size yields exactly the reference output, batch size 1
// being the degenerate per-message plane of the seed.
func TestBatchSizesProduceIdenticalResults(t *testing.T) {
	pred := join.EquiJoin("eq", nil)
	rng := rand.New(rand.NewSource(41))
	tuples := mixedStream(rng, 2500, 2500, 90)
	want := stampedPairs(pred, tuples)
	for _, bs := range []int{1, 2, 7, 32, 1024} {
		got, op := runOperator(t, Config{J: 16, Pred: pred, Seed: 7, BatchSize: bs}, tuples)
		if msg := exact.Diff(got, want); msg != "" {
			t.Fatalf("BatchSize=%d: %s", bs, msg)
		}
		if op.Metrics().BatchesSent.Load() == 0 {
			t.Fatalf("BatchSize=%d: no batches recorded", bs)
		}
	}
}

// Batch boundaries must respect the epoch protocol: with adaptive
// migrations mid-stream, old-epoch tuples never leak past a signal on
// any link. Whether a partial batch is pending when a signal is issued
// depends on timing here; TestSignalFlushesPendingBatches pins the
// flush itself.
func TestBatchingAdaptiveMigrationExact(t *testing.T) {
	pred := join.EquiJoin("eq", nil)
	for _, bs := range []int{4, 32} {
		rng := rand.New(rand.NewSource(42))
		var tuples []join.Tuple
		for i := 0; i < 250; i++ {
			tuples = append(tuples, join.Tuple{Rel: matrix.SideR, Key: rng.Int63n(60), Size: 8})
		}
		for i := 0; i < 11000; i++ {
			tuples = append(tuples, join.Tuple{Rel: matrix.SideS, Key: rng.Int63n(60), Size: 8})
		}
		want := stampedPairs(pred, tuples)
		got, op := runOperator(t, Config{
			J: 16, Pred: pred, Adaptive: true, Warmup: 500, Seed: 11, BatchSize: bs,
		}, tuples)
		if msg := exact.Diff(got, want); msg != "" {
			t.Fatalf("BatchSize=%d: %s (migrations=%d)", bs, msg, op.Migrations())
		}
		if op.Migrations() == 0 {
			t.Fatalf("BatchSize=%d: expected migrations on a lopsided stream", bs)
		}
	}
}

// An epoch command is a per-link barrier: the reshuffler ships every
// pending partial envelope, counted as a signal flush, ahead of the
// signal on the same links. The reshuffler is driven by hand, so the
// envelope is pending when the command lands by construction rather
// than by timing.
func TestSignalFlushesPendingBatches(t *testing.T) {
	from, to := matrix.Mapping{N: 2, M: 1}, matrix.Mapping{N: 1, M: 2}
	op := mustOperator(t, Config{J: 2, Pred: join.EquiJoin("eq", nil), Initial: from})
	r := handReshuffler(op)
	// Under (2,1) an S tuple goes to both rows: one pending envelope for
	// the column, shared by both links.
	r.routeBatch([]join.Tuple{{Rel: matrix.SideS, Key: 1, Seq: 1, U: 1}})
	if n := op.met.BatchesSent.Load(); n != 0 {
		t.Fatalf("%d envelopes shipped before the command", n)
	}
	r.applyCtrl(ctrlMsg{kind: ctrlEpoch, epoch: 1, mapping: to})
	if n := op.met.BatchFlushSignal.Load(); n != 1 {
		t.Fatalf("BatchFlushSignal = %d, want 1 (the column's envelope)", n)
	}
	var shared *envelope
	for _, w := range op.joiners {
		data, sig := <-w.dataIn, <-w.dataIn
		if data.hdr.kind != kTuple || data.hdr.epoch != 0 || len(data.tuples) != 1 {
			t.Fatalf("joiner %d: first envelope %+v, want the pending old-epoch tuple", w.id, data)
		}
		if shared == nil {
			shared = data
		} else if data != shared {
			t.Fatalf("joiner %d got its own copy of the column's envelope", w.id)
		}
		if sig.hdr.kind != kSignal || sig.hdr.epoch != 1 || len(sig.tuples) != 0 {
			t.Fatalf("joiner %d: second envelope %+v, want the epoch-1 signal", w.id, sig)
		}
	}
}

// Elastic 1-to-4 expansion spawns joiners mid-stream; batches routed to
// freshly spawned children must arrive after their birth signal.
func TestBatchingElasticExpansionExact(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pred := join.EquiJoin("eq", nil)
	tuples := mixedStream(rng, 3000, 3000, 80)
	want := stampedPairs(pred, tuples)
	got, op := runOperator(t, Config{
		J: 4, Pred: pred, Adaptive: true, Seed: 17, BatchSize: 16,
		Warmup:             600,
		MaxTuplesPerJoiner: 400,
	}, tuples)
	if op.Metrics().Expansions.Load() == 0 {
		t.Fatal("expected an elastic expansion")
	}
	exact.Equal(t, got, want)
}

// A non-power-of-two J (12 runs an 8-joiner grid) must stay
// exactly-once across batch sizes, including under migrations.
func TestBatchingGroupedExact(t *testing.T) {
	pred := join.EquiJoin("eq", nil)
	rng := rand.New(rand.NewSource(44))
	var tuples []join.Tuple
	for burst := 0; burst < 4; burst++ {
		side := matrix.SideR
		if burst%2 == 1 {
			side = matrix.SideS
		}
		for i := 0; i < 1800; i++ {
			tuples = append(tuples, join.Tuple{Rel: side, Key: rng.Int63n(150), Size: 8})
		}
	}
	want := stampedPairs(pred, tuples)
	for _, bs := range []int{1, 32} {
		got, op := runOperator(t, Config{J: 12, Pred: pred, Adaptive: true, Seed: 9, BatchSize: bs}, tuples)
		if msg := exact.Diff(got, want); msg != "" {
			t.Fatalf("batch %d: %s (migrations=%d)", bs, msg, op.Migrations())
		}
	}
}

// Under sustained load, full envelopes should dominate the flush mix
// and the realized mean batch size should comfortably exceed 1.
func TestBatchMetricsRecorded(t *testing.T) {
	pred := join.EquiJoin("eq", nil)
	rng := rand.New(rand.NewSource(45))
	tuples := mixedStream(rng, 8000, 8000, 1<<20)
	_, op := runOperator(t, Config{J: 4, Pred: pred, Seed: 5, BatchSize: 16, NumReshufflers: 1}, tuples)
	m := op.Metrics()
	if m.BatchesSent.Load() == 0 || m.BatchedMessages.Load() == 0 {
		t.Fatal("no batch traffic recorded")
	}
	if m.BatchFlushFull.Load() == 0 {
		t.Fatal("no full-envelope flushes under sustained load")
	}
	if mean := m.MeanBatchSize(); mean <= 1 {
		t.Fatalf("mean batch size %.2f, want > 1", mean)
	}
}

// Results must not wait for a full envelope: with a huge batch size and
// a trickle of input, idle/linger flushes deliver pairs promptly while
// the stream is still open.
func TestBatchPartialFlushKeepsLatencyHonest(t *testing.T) {
	var n atomic.Int64
	op := mustOperator(t, Config{
		J: 4, Pred: join.EquiJoin("eq", nil), Seed: 3,
		BatchSize: 4096, BatchLinger: 100 * time.Microsecond,
		EmitBatch: counter(&n),
	})
	op.Start()
	for i := 0; i < 50; i++ {
		op.Send(join.Tuple{Rel: matrix.SideR, Key: int64(i), Size: 8})
		op.Send(join.Tuple{Rel: matrix.SideS, Key: int64(i), Size: 8})
	}
	deadline := time.Now().Add(5 * time.Second)
	for n.Load() < 50 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := n.Load(); got < 50 {
		t.Fatalf("only %d/50 pairs delivered before Finish; partial batches not flushing", got)
	}
	if err := op.Finish(); err != nil {
		t.Fatal(err)
	}
}

// The data inbox is sized in batches so that buffered message volume
// stays near DataQueueCap regardless of batch size.
func TestJoinerPortsCapacityScalesWithBatchSize(t *testing.T) {
	cases := []struct{ dataCap, batch, want int }{
		{1024, 1, 1024},
		{1024, 32, 32},
		{8, 32, 1},
		{1000, 3, 333},
	}
	for _, c := range cases {
		p := newJoinerPorts(c.dataCap, c.batch)
		if got := cap(p.dataIn); got != c.want {
			t.Fatalf("newJoinerPorts(%d,%d) cap %d, want %d", c.dataCap, c.batch, got, c.want)
		}
	}
}

// Recycled envelopes must come back empty and regrow cleanly.
func TestBatchPoolRoundTrip(t *testing.T) {
	e := getEnvelope(8)
	e.hdr = message{kind: kTuple, epoch: 3, expand: true}
	for i := 0; i < 8; i++ {
		e.tuples = append(e.tuples, join.Tuple{Key: int64(i), Payload: []byte{1}})
	}
	body := e.tuples
	e.refs.Store(1)
	e.release()
	if len(e.tuples) != 0 || e.hdr.epoch != 0 || e.hdr.expand || e.bytes != 0 {
		t.Fatalf("released envelope kept %d tuples, header %+v", len(e.tuples), e.hdr)
	}
	if body[0].Payload != nil {
		t.Fatal("released envelope pins a payload")
	}
	e2 := getEnvelope(16)
	if len(e2.tuples) != 0 || cap(e2.tuples) < 16 {
		t.Fatalf("pooled envelope came back with len %d cap %d", len(e2.tuples), cap(e2.tuples))
	}
	e2.tuples = append(e2.tuples, join.Tuple{Key: 9})
	if e2.tuples[0].Key != 9 {
		t.Fatal("recycled envelope corrupt")
	}
	e2.refs.Store(1)
	e2.release()
}
