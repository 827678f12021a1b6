package main

import (
	"context"
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	squall "repro"
	"repro/internal/matrix"
	"repro/internal/storage"
)

// burstEvery is the open loop's pacing unit: tuples due within the
// same millisecond leave together, after one time.Sleep.
const burstEvery = time.Millisecond

// env holds what set-up builds besides the stream: the scratch
// directory checkpoints go to and the worker listeners.
type env struct {
	dir     string
	workers []*squall.WorkerServer
}

func newEnv(sp spec, outDir string) (*env, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "tmp-"+sp.name+"-")
	if err != nil {
		return nil, err
	}
	e := &env{dir: dir}
	for i := 0; i < sp.workers; i++ {
		ws, err := squall.NewWorkerServer("127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, fmt.Errorf("start worker %d: %w", i, err)
		}
		e.workers = append(e.workers, ws)
	}
	return e, nil
}

func (e *env) close() {
	for _, ws := range e.workers {
		_ = ws.Close() // listener only; sessions have ended
	}
	_ = os.RemoveAll(e.dir)
}

// shardAcc is one sink shard's accumulator, padded so that shards
// written from different joiner goroutines never share a cache line.
type shardAcc struct {
	pairs  int64
	sum    uint64
	emitNS int64
	lat    *latHist
	_      [32]byte
}

// repOpts selects what one rep measures beyond its wall time.
type repOpts struct {
	// checksum makes the sink fold every pair into the order-
	// independent checksum (warm-up and traced rep).
	checksum bool
	// open feeds the open-loop prefix through Send on a schedule and
	// records pair latencies; otherwise the whole stream goes through
	// SendBatch as fast as the operator takes it.
	open bool
	// tr, when non-nil, records a span around every call into the
	// operator and every sink callback.
	tr  *tracer
	rep int
}

// repResult is everything one rep yields.
type repResult struct {
	tuples   int
	wall     time.Duration // StartContext to Finish returning
	newEng   time.Duration
	start    time.Duration
	finish   time.Duration
	pairs    int64
	sum      uint64
	errs     int64 // failed Send/SendBatch/Checkpoint/Finish/Serve calls
	ckpts    int64 // checkpoints requested
	ckptMS   []float64
	fullMS   []float64 // durations of the checkpoints that wrote a full snapshot
	sendNS   []int64   // traced: one per Send/SendBatch call
	emitNS   int64     // traced: time inside the sink
	lat      *latHist
	lagMS    []float64 // open loop: how late each burst left
	counters counters
	rt       rtDelta
	backend  *timedBackend
	ckptDir  string
}

// counters is the Engine.Metrics() view read after Finish.
type counters struct {
	routed, batches, batched                       int64
	flushFull, flushLinger, flushIdle, flushSignal int64
	laneSpills, migrations, migrated               int64
	migBatches                                     int64
	migNanos                                       int64
	maxILF, totalIn, outPairs                      int64
	skew                                           float64
}

func readCounters(m *squall.OperatorMetrics) counters {
	c := counters{
		routed:      m.RoutedMessages.Load(),
		batches:     m.BatchesSent.Load(),
		batched:     m.BatchedMessages.Load(),
		flushFull:   m.BatchFlushFull.Load(),
		flushLinger: m.BatchFlushLinger.Load(),
		flushIdle:   m.BatchFlushIdle.Load(),
		flushSignal: m.BatchFlushSignal.Load(),
		laneSpills:  m.LaneSpills.Load(),
		migrations:  m.Migrations.Load(),
		migrated:    m.TotalMigrated(),
		migBatches:  m.MigBatchesSent.Load(),
		migNanos:    m.MigrationNanos.Load(),
		maxILF:      m.MaxILFTuples(),
		totalIn:     m.TotalInputTuples(),
		outPairs:    m.TotalOutputPairs(),
	}
	if n := m.NumJoiners(); n > 0 && c.totalIn > 0 {
		c.skew = float64(c.maxILF) / (float64(c.totalIn) / float64(n))
	}
	return c
}

// runRep drives one fresh engine over the stream and returns what it
// measured. An error means the rep could not be run at all (set-up of
// the engine's surroundings failed); operation failures are counted in
// the result instead.
func runRep(sp spec, st *stream, e *env, seed int64, o repOpts) (*repResult, error) {
	ts := st.tuples
	if o.open {
		ts = ts[:st.open]
	}
	res := &repResult{tuples: len(ts)}
	acc := make([]shardAcc, joiners)
	if o.open {
		res.lat = &latHist{}
		for i := range acc {
			acc[i].lat = &latHist{}
		}
	}
	burst := max(1, sp.openRate/int(time.Second/burstEvery))
	var root uint64
	if o.tr != nil {
		root = o.tr.newID()
	}
	var feedStart time.Time // open loop: when burst 0 was due
	sink := squall.Sharded(func(shard int, ps []squall.Pair) {
		a := &acc[shard]
		var t0 time.Time
		if o.tr != nil {
			t0 = time.Now()
		}
		a.pairs += int64(len(ps))
		if o.checksum {
			for i := range ps {
				a.sum += pairMix(ps[i].R.Aux, ps[i].S.Aux)
			}
		}
		if o.open {
			// One clock read per call; a pair's latency runs from the
			// due time of the burst that held its newer tuple.
			now := time.Since(feedStart)
			for i := range ps {
				newer := max(ps[i].R.Aux, ps[i].S.Aux)
				a.lat.add(now - time.Duration(int(newer)/burst)*burstEvery)
			}
		}
		if o.tr != nil {
			t1 := time.Now()
			a.emitNS += int64(t1.Sub(t0))
			o.tr.add(1+shard, span{Parent: root, Name: "sink.emit", Rep: o.rep, N: int64(len(ps))}, t0, t1)
		}
	})

	opts := []squall.Option{squall.WithJoiners(joiners), squall.WithSeed(seed)}
	if sp.adaptive {
		opts = append(opts, squall.WithAdaptive(), squall.WithWarmup(sp.warmup))
	}
	var curCkpt atomic.Uint64 // span id of the Checkpoint() call in progress
	if sp.ckptEvery > 0 {
		dir, err := os.MkdirTemp(e.dir, "ckpt-")
		if err != nil {
			return nil, err
		}
		fb, err := squall.NewFileBackend(dir)
		if err != nil {
			return nil, err
		}
		res.ckptDir = dir
		res.backend = &timedBackend{inner: fb, tr: o.tr, parent: &curCkpt, rep: o.rep}
		// Keep 10 sidesteps FileBackend.gc dropping manifests that live
		// delta chains still reference (see README, "defect").
		opts = append(opts, squall.WithBackend(res.backend), squall.WithCheckpointKeep(10))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, len(e.workers))
	if len(e.workers) > 0 {
		addrs := make([]string, len(e.workers))
		for i, ws := range e.workers {
			addrs[i] = ws.Addr()
			go func() { served <- ws.Serve(ctx) }()
		}
		opts = append(opts, squall.WithWorkers(addrs...))
	}

	var before rtSample
	before.read()
	repStart := time.Now()
	eng := squall.NewEngine(sp.pred, sink, opts...)
	t1 := time.Now()
	eng.StartContext(ctx)
	t2 := time.Now()
	res.newEng, res.start = t1.Sub(repStart), t2.Sub(t1)
	if o.tr != nil {
		o.tr.add(0, span{Parent: root, Name: "squall.new_engine", Rep: o.rep}, repStart, t1)
		o.tr.add(0, span{Parent: root, Name: "core.start", Rep: o.rep}, t1, t2)
	}
	goroutines := runtime.NumGoroutine()

	checkpoint := func() {
		op, ok := eng.(*squall.Operator)
		if !ok {
			res.errs++
			return
		}
		var id uint64
		if o.tr != nil {
			id = o.tr.newID()
			curCkpt.Store(id)
		}
		c0 := time.Now()
		err := op.Checkpoint()
		c1 := time.Now()
		res.ckpts++
		if err != nil {
			res.errs++
		}
		ms := float64(c1.Sub(c0)) / 1e6
		res.ckptMS = append(res.ckptMS, ms)
		if res.backend.lastWasFull() {
			res.fullMS = append(res.fullMS, ms)
		}
		if o.tr != nil {
			o.tr.addID(0, id, span{Parent: root, Name: "core.checkpoint", Rep: o.rep}, c0, c1)
		}
	}
	// sent books one Send/SendBatch call of n tuples begun at s0 (zero
	// when tracing is off).
	sent := func(err error, n int, s0 time.Time) {
		if err != nil {
			res.errs += int64(n)
		}
		if o.tr != nil {
			s1 := time.Now()
			res.sendNS = append(res.sendNS, int64(s1.Sub(s0)))
			o.tr.add(0, span{Parent: root, Name: "core.send", Rep: o.rep, N: int64(n)}, s0, s1)
		}
	}
	begin := func() (s0 time.Time) {
		if o.tr != nil {
			s0 = time.Now()
		}
		return s0
	}
	ckptDue := func(i, j int) bool {
		return sp.ckptEvery > 0 && j < len(ts) && j/sp.ckptEvery > i/sp.ckptEvery
	}

	if !o.open {
		for i := 0; i < len(ts); i += runLen {
			j := min(i+runLen, len(ts))
			s0 := begin()
			sent(eng.SendBatch(ts[i:j]), j-i, s0)
			if ckptDue(i, j) {
				checkpoint()
			}
			if i == len(ts)/2/runLen*runLen {
				goroutines = max(goroutines, runtime.NumGoroutine())
			}
		}
	} else {
		feedStart = time.Now()
		for i := 0; i < len(ts); i += burst {
			due := time.Duration(i/burst) * burstEvery
			if d := due - time.Since(feedStart); d > 0 {
				time.Sleep(d)
			}
			res.lagMS = append(res.lagMS, float64(time.Since(feedStart)-due)/1e6)
			j := min(i+burst, len(ts))
			for k := i; k < j; k++ {
				s0 := begin()
				sent(eng.Send(ts[k]), 1, s0)
			}
			if ckptDue(i, j) {
				checkpoint()
			}
		}
	}
	f0 := time.Now()
	if err := eng.Finish(); err != nil {
		res.errs++
	}
	f1 := time.Now()
	res.finish, res.wall = f1.Sub(f0), f1.Sub(t1)
	if o.tr != nil {
		o.tr.add(0, span{Parent: root, Name: "core.finish", Rep: o.rep}, f0, f1)
		o.tr.addID(0, root, span{Name: "rep", Rep: o.rep, N: int64(len(ts))}, repStart, f1)
	}
	var after rtSample
	after.read()
	res.rt = after.since(before)
	res.rt.goroutines = goroutines

	for range e.workers {
		select {
		case err := <-served:
			if err != nil {
				res.errs++
			}
		case <-time.After(30 * time.Second):
			return nil, fmt.Errorf("%s: worker session did not end after Finish", sp.name)
		}
	}
	for i := range acc {
		res.pairs += acc[i].pairs
		res.sum += acc[i].sum
		res.emitNS += acc[i].emitNS
		if o.open {
			res.lat.merge(acc[i].lat)
		}
	}
	res.counters = readCounters(eng.Metrics())
	if res.ckptDir != "" && o.tr == nil {
		// The traced rep's directory stays for the load measurement.
		_ = os.RemoveAll(res.ckptDir)
	}
	return res, nil
}

// wantPairs is the oracle's pair count for the rep's input: the whole
// stream, or the open-loop prefix.
func (r *repResult) wantPairs(st *stream) int64 {
	if r.tuples < len(st.tuples) {
		return st.openPairs
	}
	return st.pairs
}

// ilfRatio is the paper's competitive ratio: the busiest joiner's
// input (migration traffic included) over the ILF of the mapping an
// omniscient operator would have used for the final cardinalities.
// With remote joiners the per-joiner counters live in the workers, so
// the coordinator's routed-message count spread over J stands in for
// the maximum.
func (r *repResult) ilfRatio(sp spec, st *stream) float64 {
	rr, ss := float64(st.r), float64(st.s)
	opt := matrix.Optimal(joiners, rr, ss).ILF(rr, ss)
	if sp.workers > 0 {
		return float64(r.counters.routed) / joiners / opt
	}
	return float64(r.counters.maxILF) / opt
}

// timedBackend counts and times what the operator asks of the
// FileBackend. A Write with no deps is a full snapshot.
type timedBackend struct {
	inner  *squall.FileBackend
	tr     *tracer
	parent *atomic.Uint64
	rep    int

	mu       sync.Mutex
	writeMS  []float64
	bytes    int64
	fulls    int
	lastFull bool
}

func (b *timedBackend) Write(gen uint64, data []byte, deps []uint64) error {
	t0 := time.Now()
	err := b.inner.Write(gen, data, deps)
	t1 := time.Now()
	b.mu.Lock()
	b.writeMS = append(b.writeMS, float64(t1.Sub(t0))/1e6)
	b.bytes += int64(len(data))
	b.lastFull = len(deps) == 0
	if b.lastFull {
		b.fulls++
	}
	b.mu.Unlock()
	if b.tr != nil {
		b.tr.add(laneBackend, span{Parent: b.parent.Load(), Name: "storage.backend_write", Rep: b.rep, N: int64(len(data))}, t0, t1)
	}
	return err
}

func (b *timedBackend) Generations() ([]uint64, error) { return b.inner.Generations() }

func (b *timedBackend) Load(gen uint64) ([]storage.Blob, error) { return b.inner.Load(gen) }

// SetKeep forwards the operator's retention setting (storage.KeepSetter).
func (b *timedBackend) SetKeep(k int) { b.inner.SetKeep(k) }

func (b *timedBackend) lastWasFull() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lastFull
}

// latHist is a log-linear histogram of durations: 32 buckets per
// octave (3% wide), so millions of pair latencies pool in constant
// space and a quantile interpolates inside one narrow bucket.
type latHist struct {
	counts [60 * 32]int64
	n      int64
	max    time.Duration
}

func latBucket(ns uint64) int {
	if ns < 32 {
		return int(ns)
	}
	e := bits.Len64(ns) - 1
	return (e-4)*32 + int(ns>>(e-5))&31
}

// latBounds returns bucket i's lower bound and width in nanoseconds.
func latBounds(i int) (lo, width float64) {
	if i < 32 {
		return float64(i), 1
	}
	e := i/32 + 4
	return float64(uint64(32+i%32) << (e - 5)), float64(uint64(1) << (e - 5))
}

func (h *latHist) add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[latBucket(uint64(d))]++
	h.n++
	if d > h.max {
		h.max = d
	}
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.max = max(h.max, o.max)
}

// quantileMS returns the q-quantile in milliseconds, interpolated by
// rank inside its bucket; 0 for an empty histogram.
func (h *latHist) quantileMS(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := latBounds(i)
			return (lo + w*(rank-cum)/float64(c)) / 1e6
		}
		cum += float64(c)
	}
	return float64(h.max) / 1e6
}
