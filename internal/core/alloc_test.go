package core

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/storage"
)

// ingestAllocBudget is the enforced steady-state allocation budget per
// Send across the whole pipeline (reshuffler routing, batch plane, and
// every joiner's probe+insert). The measured value on the batched
// envelope planes is ~1.5; the budget leaves headroom for pool misses
// after a GC while still catching any per-tuple allocation that sneaks
// back into the hot path (the seed's per-message plane sat at 11+, the
// PR-2 plane at ~2 under a budget of 6).
const ingestAllocBudget = 3.0

// sendBatchAllocBudget is the enforced amortized per-tuple budget on
// the SendBatch path: whole envelopes ride pooled buffers end to end,
// so a batch of tuples costs at most one allocation per tuple — in
// steady state it measures well under 0.5.
const sendBatchAllocBudget = 1.0

// migrationAllocBudget is the enforced allocation budget per input
// tuple on a stream that keeps the operator migrating. Every epoch runs
// on the batch path, so a tuple that arrives mid-migration costs what a
// steady-state one does: measured 0.04–0.18 on 2 CPUs at GOMAXPROCS
// 1–4, most of it migration blocks and pool refills. The per-tuple
// callback path this replaced sat at 1.1–5.1 (a probe closure per store
// per tuple).
const migrationAllocBudget = 0.4

// minAllocsPerRun runs testing.AllocsPerRun several times and returns
// the minimum average. The ingest pipeline is concurrent: a GC during
// a measurement purges the envelope pools, and a producer briefly
// outrunning the consumers drains them, so individual averages carry
// repopulation noise that has nothing to do with per-tuple behavior. A
// real per-tuple allocation shows up in every attempt; the minimum
// keeps the budget sharp without flaking on pool refills.
func minAllocsPerRun(attempts, runs int, f func()) float64 {
	min := testing.AllocsPerRun(runs, f)
	for i := 1; i < attempts; i++ {
		if v := testing.AllocsPerRun(runs, f); v < min {
			min = v
		}
	}
	return min
}

func newAllocOperator(t testing.TB) (*Operator, func(int) []join.Tuple) {
	var n atomic.Int64
	op := mustOperator(t, Config{
		J: 16, Pred: join.EquiJoin("alloc", nil), Seed: 1,
		EmitBatch: counter(&n),
	})
	op.Start()
	rng := rand.New(rand.NewSource(9))
	i := 0
	mk := func(k int) []join.Tuple {
		ts := make([]join.Tuple, k)
		for j := range ts {
			side := matrix.SideR
			if i%2 == 1 {
				side = matrix.SideS
			}
			i++
			ts[j] = join.Tuple{Rel: side, Key: rng.Int63n(1 << 16), Size: 8}
		}
		return ts
	}
	return op, mk
}

// TestIngestAllocBudget pins the per-tuple Send path's allocation
// behavior with testing.AllocsPerRun, so an allocation regression
// fails `go test` instead of only drifting a benchmark number.
func TestIngestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the budget is measured without -race")
	}
	if testing.Short() {
		t.Skip("steady-state warmup is not short")
	}
	op, mk := newAllocOperator(t)
	// Warm the pipeline: pools populated, hash directories and arenas
	// near their working size, channels in steady flow.
	for _, tp := range mk(30000) {
		if err := op.Send(tp); err != nil {
			t.Fatal(err)
		}
	}
	// Pre-generate the measured tuples so the timed region contains
	// only the Send path itself.
	const perRun = 200
	tuples := mk(perRun * 40)
	next := 0
	avg := minAllocsPerRun(5, 20, func() {
		for k := 0; k < perRun; k++ {
			if err := op.Send(tuples[next%len(tuples)]); err != nil {
				t.Fatal(err)
			}
			next++
		}
	})
	if err := op.Finish(); err != nil {
		t.Fatal(err)
	}
	perSend := avg / perRun
	t.Logf("ingest allocations: %.2f per Send (budget %.1f)", perSend, ingestAllocBudget)
	if perSend > ingestAllocBudget {
		t.Fatalf("ingest path allocates %.2f per Send, budget %.1f", perSend, ingestAllocBudget)
	}
}

// TestMigrationAllocBudget pins allocations per input tuple over a
// stream whose alternating R- and S-heavy bursts force several
// migrations, so a large share of tuples arrives as ∆ or ∆′ while state
// moves. Each attempt is one whole operator run, start to Finish; the
// minimum over attempts keeps a GC's pool purge from failing the
// budget, while a per-tuple allocation shows up in every attempt.
func TestMigrationAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the budget is measured without -race")
	}
	if testing.Short() {
		t.Skip("three adaptive runs are not short")
	}
	rng := rand.New(rand.NewSource(5))
	var tuples []join.Tuple
	for burst := 0; burst < 6; burst++ {
		for i := 0; i < 10000; i++ {
			tuples = append(tuples, join.Tuple{Rel: matrix.Side(burst % 2), Key: rng.Int63n(1 << 16), Size: 8})
		}
	}
	best := -1.0
	for attempt := 0; attempt < 3; attempt++ {
		op := mustOperator(t, Config{
			J: 8, Pred: join.EquiJoin("mig-alloc", nil), Adaptive: true, Seed: 13,
			EmitBatch: func([]join.Pair) {},
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		op.Start()
		for i := 0; i < len(tuples); i += DefaultBatchSize {
			if err := op.SendBatch(tuples[i:min(i+DefaultBatchSize, len(tuples))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := op.Finish(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if op.Migrations() < 2 {
			t.Fatalf("only %d migrations; the stream does not exercise the migration epoch", op.Migrations())
		}
		if perTuple := float64(after.Mallocs-before.Mallocs) / float64(len(tuples)); best < 0 || perTuple < best {
			best = perTuple
		}
	}
	t.Logf("migrating stream: %.2f allocations per input tuple (budget %.1f)", best, migrationAllocBudget)
	if best > migrationAllocBudget {
		t.Fatalf("migrating stream allocates %.2f per input tuple, budget %.1f", best, migrationAllocBudget)
	}
}

// sizeBackend commits nothing: it records how long each blob was and
// keeps no copy, so a checkpoint's measured allocations are the
// operator's own.
type sizeBackend struct {
	mu   sync.Mutex
	last int
}

func (b *sizeBackend) Write(_ uint64, data []byte, _ []uint64) error {
	b.mu.Lock()
	b.last = len(data)
	b.mu.Unlock()
	return nil
}

func (b *sizeBackend) Generations() ([]uint64, error) { return nil, nil }

func (b *sizeBackend) Load(uint64) ([]storage.Blob, error) { return nil, storage.ErrCorrupt }

// TestCheckpointAllocBudget pins what one full checkpoint allocates:
// the blob, written once at its exact size, plus O(J) — per joiner the
// captured entry lists and the barrier bookkeeping.
// Serializing stores into append-grown slices and concatenating them
// into an append-grown blob costs about ten times the blob.
func TestCheckpointAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the budget is measured without -race")
	}
	if testing.Short() {
		t.Skip("a 200k-tuple state is not short")
	}
	const (
		j       = 16
		tuples  = 200_000
		slack   = 1.15
		perJoin = 64 << 10 // entry lists and bookkeeping
	)
	be := &sizeBackend{}
	op := mustOperator(t, Config{
		J: j, Pred: join.EquiJoin("ckpt-alloc", nil), Seed: 1,
		Backend: be, EmitBatch: func([]join.Pair) {},
	})
	op.ckptAlwaysFull = true // the measured second checkpoint is full too
	op.Start()
	rng := rand.New(rand.NewSource(3))
	batch := make([]join.Tuple, DefaultBatchSize)
	for sent := 0; sent < tuples; sent += len(batch) {
		for i := range batch {
			batch[i] = join.Tuple{Rel: matrix.Side(i & 1), Key: rng.Int63n(1 << 22), Size: 8}
		}
		if err := op.SendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	// Measure against a quiet operator: every routed copy stored, so no
	// joiner grows its arena while the checkpoint runs.
	for deadline := time.Now().Add(time.Minute); op.Metrics().TotalInputTuples() < 4*tuples; {
		if time.Now().After(deadline) {
			t.Fatalf("joiners received %d of %d routed tuples", op.Metrics().TotalInputTuples(), 4*tuples)
		}
		time.Sleep(time.Millisecond)
	}
	if err := op.Checkpoint(); err != nil { // warm: pools, goroutines, backend
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := op.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if err := op.Finish(); err != nil {
		t.Fatal(err)
	}
	alloc := float64(after.TotalAlloc - before.TotalAlloc)
	blob := float64(be.last)
	budget := slack*blob + j*perJoin
	t.Logf("one full checkpoint: %.1f MB allocated for a %.1f MB blob (%.2fx; budget %.1f MB)",
		alloc/1e6, blob/1e6, alloc/blob, budget/1e6)
	if alloc > budget {
		t.Fatalf("checkpoint allocated %.1f MB for a %.1f MB blob, budget %.1f MB", alloc/1e6, blob/1e6, budget/1e6)
	}
}

// TestSendBatchAllocBudget pins the amortized per-tuple allocation
// behavior of the batched ingest front end: a SendBatch of BatchSize
// tuples must stay at or under one allocation per tuple (it measures
// far below — the envelope, its per-destination splits, and the data
// plane all recycle through pools; mk's input slice is built outside
// the measured region by pre-generating the batches).
func TestSendBatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the budget is measured without -race")
	}
	if testing.Short() {
		t.Skip("steady-state warmup is not short")
	}
	op, mk := newAllocOperator(t)
	const batch = DefaultBatchSize
	for k := 0; k < 30000/batch; k++ {
		if err := op.SendBatch(mk(batch)); err != nil {
			t.Fatal(err)
		}
	}
	const perRun = 8
	batches := make([][]join.Tuple, perRun*40)
	for i := range batches {
		batches[i] = mk(batch)
	}
	next := 0
	avg := minAllocsPerRun(5, 20, func() {
		for k := 0; k < perRun; k++ {
			if err := op.SendBatch(batches[next%len(batches)]); err != nil {
				t.Fatal(err)
			}
			next++
		}
	})
	if err := op.Finish(); err != nil {
		t.Fatal(err)
	}
	perTuple := avg / (perRun * batch)
	t.Logf("SendBatch allocations: %.3f per tuple amortized (budget %.1f)", perTuple, sendBatchAllocBudget)
	if perTuple > sendBatchAllocBudget {
		t.Fatalf("SendBatch path allocates %.3f per tuple, budget %.1f", perTuple, sendBatchAllocBudget)
	}
}

// workerLinkAllocBudget is the enforced allocation budget per input
// tuple of a steady equi stream whose joiners all sit behind two
// loopback-TCP worker links, counted over the whole process
// (coordinator and both workers). Every data, pair and ack frame
// buffer is recycled, so what is left is arena blocks and index growth
// (about 0.007 per tuple here) and pool refills: measured 0.008–0.016
// on 2 CPUs at GOMAXPROCS 1–8. Allocating each frame's payload, as the
// links once did, reads 0.56 here.
const workerLinkAllocBudget = 0.02

// TestWorkerLinkAllocBudget pins the link plane's garbage: a frame's
// payload buffer, on either side of a link, must not cost an
// allocation. The stream runs in rounds of 20k tuples, each fed whole
// and then waited for until every pair it makes has reached the sink.
// Every S tuple matches exactly one R tuple, so pair frames cross the
// links at a steady rate. The first round fills the pools, the free
// list and the links' buffers; the budget holds the least of the next
// six, because the worker's out-queue backs up by a different number
// of pair frames each round and a pool grows to the largest backlog
// once, while a per-frame allocation shows up in every round.
func TestWorkerLinkAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the budget is measured without -race")
	}
	if testing.Short() {
		t.Skip("a 140k-tuple distributed run is not short")
	}
	addrs, wait := serveWorkers(t, 2)
	var pairs atomic.Int64
	op := mustOperator(t, Config{
		J: 16, Pred: join.EquiJoin("link-alloc", nil), Seed: 1,
		Workers: addrs, EmitBatch: counter(&pairs),
	})
	op.Start()
	rng := rand.New(rand.NewSource(21))
	const roundTuples = 20000
	tuples := make([]join.Tuple, roundTuples)
	round := func() {
		for i := 0; i < len(tuples); i += 2 {
			k := rng.Int63n(1 << 40)
			tuples[i] = join.Tuple{Rel: matrix.SideR, Key: k, Size: 8}
			tuples[i+1] = join.Tuple{Rel: matrix.SideS, Key: k, Size: 8}
		}
		want := pairs.Load() + roundTuples/2
		for i := 0; i < len(tuples); i += DefaultBatchSize {
			if err := op.SendBatch(tuples[i:min(i+DefaultBatchSize, len(tuples))]); err != nil {
				t.Fatal(err)
			}
		}
		for deadline := time.Now().Add(time.Minute); pairs.Load() < want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d pairs after a minute", pairs.Load(), want)
			}
		}
	}
	round()
	best := -1.0
	for r := 0; r < 6; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		round()
		runtime.ReadMemStats(&after)
		if perTuple := float64(after.Mallocs-before.Mallocs) / roundTuples; best < 0 || perTuple < best {
			best = perTuple
		}
	}
	if err := op.Finish(); err != nil {
		t.Fatal(err)
	}
	wait()
	t.Logf("worker links: %.4f allocations per input tuple (budget %.2f)", best, workerLinkAllocBudget)
	if best > workerLinkAllocBudget {
		t.Fatalf("worker links allocate %.4f per input tuple, budget %.2f", best, workerLinkAllocBudget)
	}
}
