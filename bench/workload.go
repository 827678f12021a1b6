package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/storage"
)

// runConfig is one workload run: what the driver's command line (or
// the suite) asks of a workload process.
type runConfig struct {
	sp      spec
	seed    int64
	seconds float64
	trace   bool
	outDir  string
	// foldAbove overrides the trace writer's fold threshold (tests).
	foldAbove int
	log       io.Writer
}

// report is a workload run's result: the contract's last-line object
// plus what the human-readable print needs.
type report struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]float64
}

// setups is how many times a run sets up; setup_s is the median.
const setups = 3

// The closed loop runs at least minClosedReps timed reps however slow
// the host, and no more than maxClosedReps however fast.
const (
	minClosedReps = 3
	maxClosedReps = 15
)

// account folds a rep into the run's attempt and failure counts: every
// tuple sent and checkpoint requested was attempted; operation errors
// failed, and so did every tuple of a rep whose answer is not the
// oracle's.
func (rp *report) account(r *repResult, st *stream, checksum bool, log io.Writer, what string) {
	rp.Attempted += int64(r.tuples) + r.ckpts
	rp.Failed += r.errs
	want := r.wantPairs(st)
	switch {
	case r.pairs != want:
		fmt.Fprintf(log, "FAIL %s: %d pairs, oracle %d\n", what, r.pairs, want)
		rp.Failed += int64(r.tuples)
	case r.counters.outPairs != want:
		fmt.Fprintf(log, "FAIL %s: the operator counted %d pairs, oracle %d\n", what, r.counters.outPairs, want)
		rp.Failed += int64(r.tuples)
	case checksum && r.sum != st.checksum:
		fmt.Fprintf(log, "FAIL %s: pair checksum %016x, oracle %016x\n", what, r.sum, st.checksum)
		rp.Failed += int64(r.tuples)
	case r.errs > 0:
		fmt.Fprintf(log, "FAIL %s: %d operations returned errors\n", what, r.errs)
	}
}

// runWorkload runs one workload from set-up to metrics.
func runWorkload(cfg runConfig) (*report, error) {
	sp, log := cfg.sp, cfg.log
	rp := &report{Metrics: map[string]float64{}}
	m := rp.Metrics

	// Set-up, several times over so that setup_s is a median.
	var st *stream
	var e *env
	var setupS, genRate, baseRate []float64
	for i := 0; i < setups; i++ {
		if e != nil {
			e.close()
			st = nil
			runtime.GC()
		}
		t0 := time.Now()
		st = buildStream(sp, cfg.seed)
		var err error
		if e, err = newEnv(sp, cfg.outDir); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		genRate = append(genRate, float64(len(st.tuples))/st.genSeconds)
		baseRate = append(baseRate, float64(len(st.tuples))/st.oracleSeconds)
	}
	defer e.close()
	n := float64(len(st.tuples))
	fmt.Fprintf(log, "workload %s seed %d: %s\n", sp.name, cfg.seed, st)
	fmt.Fprintf(log, "set-up: %d times, median %.3f s (generate %.3f s, oracle %.3f s)\n",
		setups, median(setupS), st.genSeconds, st.oracleSeconds)

	// Warm-up rep: untimed, and the checksum rep.
	runtime.GC()
	rssSetup := peakRSSMB()
	warm, err := runRep(sp, st, e, cfg.seed, repOpts{checksum: true})
	if err != nil {
		return nil, err
	}
	rp.account(warm, st, true, log, "warm-up rep")
	rssWarm := peakRSSMB()

	// The open loop takes openReps reps of fixed length out of -seconds;
	// the closed loop fills the rest with as many timed reps as fit.
	openReps := 2
	if cfg.trace {
		openReps = 1
	}
	openS := float64(openReps) * (float64(st.open)/float64(sp.openRate) + 0.3)
	budget := cfg.seconds - openS
	if cfg.trace {
		budget = cfg.seconds * 0.35
	}
	var closed []*repResult
	phase := time.Now()
	fits := func() bool {
		last := closed[len(closed)-1].wall.Seconds()
		return time.Since(phase).Seconds()+last <= budget && len(closed) < maxClosedReps
	}
	for len(closed) < minClosedReps || fits() {
		runtime.GC()
		r, err := runRep(sp, st, e, cfg.seed, repOpts{rep: 1 + len(closed)})
		if err != nil {
			return nil, err
		}
		rp.account(r, st, false, log, fmt.Sprintf("closed rep %d", len(closed)+1))
		closed = append(closed, r)
	}
	closedS := time.Since(phase).Seconds()

	lat := &latHist{}
	var lagMS []float64
	var openWall, openDue float64
	for i := 0; i < openReps; i++ {
		runtime.GC()
		r, err := runRep(sp, st, e, cfg.seed, repOpts{open: true, rep: 100 + i})
		if err != nil {
			return nil, err
		}
		rp.account(r, st, false, log, fmt.Sprintf("open rep %d", i+1))
		lat.merge(r.lat)
		lagMS = append(lagMS, r.lagMS...)
		openWall += r.wall.Seconds()
		openDue += float64(r.tuples) / float64(sp.openRate)
	}

	var tps, ilf, walls, ckptMS, fullMS []float64
	for _, r := range closed {
		tps = append(tps, float64(r.tuples)/r.wall.Seconds())
		walls = append(walls, r.wall.Seconds())
		ilf = append(ilf, r.ilfRatio(sp, st))
		ckptMS = append(ckptMS, r.ckptMS...)
		fullMS = append(fullMS, r.fullMS...)
	}
	m["tuples_per_s"] = median(tps)
	m["ilf_ratio"] = median(ilf)
	m["lat_p50_ms"] = lat.quantileMS(0.5)
	m["setup_s"] = median(setupS)
	m["ckpt_p50_ms"] = median(ckptMS)
	fmt.Fprintf(log, "closed loop: warm-up %.2f s, %d timed reps of %.0f tuples in %.1f s, walls %s s\n",
		warm.wall.Seconds(), len(closed), n, closedS, fmtFloats(walls))
	fmt.Fprintf(log, "open loop: %d reps at %d tuples/s in 1 ms bursts, %d latency samples, fed in %.2f s of %.2f s due\n",
		openReps, sp.openRate, lat.n, openWall, openDue)
	if len(ckptMS) > 0 {
		fmt.Fprintf(log, "checkpoints: %d samples over the timed reps, %d full\n", len(ckptMS), len(fullMS))
	}

	if cfg.trace {
		un := untraced{warm: warm, closed: closed, tps: median(tps), lat: lat, lagMS: lagMS,
			fullMS: median(fullMS), genRate: median(genRate), baseRate: median(baseRate)}
		if err := tracedPass(cfg, rp, st, e, un); err != nil {
			return nil, err
		}
	}
	m["peak_rss_mb"] = rssWarm
	fmt.Fprintf(log, "resident-set high-water mark: %.0f MB after set-up, %.0f MB after the first rep, %.0f MB at exit\n", rssSetup, rssWarm, peakRSSMB())
	rp.Correct = rp.Failed == 0
	return rp, nil
}

// untraced is what the run's untraced phases hand the traced pass to
// compare against and report from.
type untraced struct {
	warm   *repResult
	closed []*repResult
	tps    float64 // the run's tuples_per_s
	lat    *latHist
	lagMS  []float64
	// fullMS is the median Checkpoint() duration of the full snapshots;
	// genRate and baseRate the set-ups' median tuples/s of generation
	// and of the oracle pass.
	fullMS, genRate, baseRate float64
}

// tracedPass repeats one closed-loop rep with spans on, prices the
// layers by replay, and fills every per-layer metric. End-to-end
// numbers never come from here.
func tracedPass(cfg runConfig, rp *report, st *stream, e *env, un untraced) error {
	sp, log, m := cfg.sp, cfg.log, rp.Metrics
	tr := newTracer()
	runtime.GC()
	r, err := runRep(sp, st, e, cfg.seed, repOpts{checksum: true, tr: tr, rep: 1000})
	if err != nil {
		return err
	}
	rp.account(r, st, true, log, "traced rep")
	n := float64(r.tuples)
	c := r.counters

	var sendNS int64
	sends := make([]float64, len(r.sendNS))
	for i, v := range r.sendNS {
		sendNS += v
		sends[i] = float64(v)
	}
	m["core.send_ns_per_tuple"] = float64(sendNS) / n
	m["core.send_p99_us"] = quantile(sends, 0.99) / 1e3
	m["core.finish_ms"] = float64(r.finish) / 1e6
	m["core.start_ms"] = float64(r.newEng+r.start) / 1e6
	m["core.routed_per_tuple"] = float64(c.routed) / n
	if c.batches > 0 {
		m["core.mean_batch"] = float64(c.batched) / float64(c.batches)
	}
	if flushes := float64(c.flushFull + c.flushLinger + c.flushIdle + c.flushSignal); flushes > 0 {
		m["core.flush_full_share"] = float64(c.flushFull) / flushes
		m["core.flush_linger_share"] = float64(c.flushLinger) / flushes
		m["core.flush_idle_share"] = float64(c.flushIdle) / flushes
	}
	m["core.lane_spills"] = float64(c.laneSpills)
	m["core.joiner_skew"] = c.skew
	m["core.migrations"] = float64(c.migrations)
	m["core.migrated_per_tuple"] = float64(c.migrated) / n
	m["core.migration_drain_ms"] = float64(c.migNanos) / 1e6
	m["core.ilf_max_tuples"] = float64(c.maxILF)
	m["core.lat_p99_ms"] = un.lat.quantileMS(0.99)
	m["core.lat_max_ms"] = float64(un.lat.max) / 1e6
	m["core.cold_rep_s"] = un.warm.wall.Seconds()

	// The runtime's view of an untraced rep: medians over the timed reps.
	var cpu, gcShare, cycles, allocs, allocB, heap, gor, walls []float64
	for _, r := range un.closed {
		cpu = append(cpu, r.rt.cpu)
		if r.rt.cpu > 0 {
			gcShare = append(gcShare, r.rt.gcCPU/r.rt.cpu)
		}
		cycles = append(cycles, float64(r.rt.gcCycles))
		allocs = append(allocs, float64(r.rt.mallocs)/n)
		allocB = append(allocB, float64(r.rt.allocBytes)/n)
		heap = append(heap, float64(r.rt.heapPeak)/1e6)
		gor = append(gor, float64(r.rt.goroutines))
		walls = append(walls, r.wall.Seconds())
	}
	repCPU := median(cpu)
	m["runtime.cpu_s_per_mtuple"] = repCPU / n * 1e6
	m["runtime.gc_cpu_share"] = median(gcShare)
	m["runtime.gc_cycles_per_rep"] = median(cycles)
	m["runtime.allocs_per_tuple"] = median(allocs)
	m["runtime.alloc_bytes_per_tuple"] = median(allocB)
	m["runtime.heap_peak_mb"] = quantile(heap, 1)
	m["runtime.goroutines_peak"] = quantile(gor, 1)

	m["bench.trace_overhead_share"] = 1 - n/r.wall.Seconds()/un.tps
	m["bench.gen_lag_p99_ms"] = quantile(un.lagMS, 0.99)
	if r.pairs > 0 {
		m["bench.sink_ns_per_pair"] = float64(r.emitNS) / float64(r.pairs)
	}
	m["bench.rep_spread"] = (quantile(walls, 1) - quantile(walls, 0)) / median(walls)

	if b := r.backend; b != nil {
		m["storage.write_p50_ms"] = median(b.writeMS)
		m["storage.bytes_per_ckpt"] = float64(b.bytes) / float64(len(b.writeMS))
		m["storage.delta_share"] = 1 - float64(b.fulls)/float64(len(b.writeMS))
		m["storage.ckpt_full_ms"] = un.fullMS
		t0 := time.Now()
		loadErr := loadNewest(tr, b)
		m["storage.load_ms"] = float64(time.Since(t0)) / 1e6
		if loadErr != nil {
			fmt.Fprintf(log, "FAIL load of the newest checkpoint: %v\n", loadErr)
			rp.Failed++
		}
		rp.Attempted++
		_ = os.RemoveAll(r.ckptDir)
	}

	share := joinerShare(st.tuples, cfg.seed)
	replayJoin(tr, sp.pred, share, m)
	if err := replayStorage(tr, sp.pred, share, m); err != nil {
		return err
	}
	if err := replayTransport(tr, st.tuples, int(m["core.mean_batch"]+0.5), m); err != nil {
		return err
	}
	replaySmall(tr, st, cfg.seed, m)
	m["workload.gen_tuples_per_s"] = un.genRate
	m["baseline.local_tuples_per_s"] = un.baseRate
	m["baseline.speedup"] = un.tps / un.baseRate

	// The ledger: what the replays' prices, times the work the rep's
	// counters report, explain of the rep's process CPU. What is left
	// is core's own: reshuffler, controller, channels, scheduling.
	joinCPU := m["join.add_ns_per_tuple"] * float64(c.routed) / 1e9
	var wireCPU float64
	if sp.workers > 0 {
		wireCPU = m["transport.tcp_ns_per_frame"] * float64(c.batches) / 1e9
	}
	ledger := []struct {
		layer string
		cpuS  float64
	}{
		{"join", joinCPU},
		{"storage", max(m["storage.add_ns_per_tuple"]-m["join.add_ns_per_tuple"], 0)*float64(c.routed)/1e9 + snapshotCPU(r, m)},
		{"transport", wireCPU},
		{"matrix", m["matrix.keeps_ns_per_tuple"] * float64(c.migrated) / 1e9},
		{"stats", m["stats.observe_ns"] * n / runLen / 1e9},
		{"dataflow", m["dataflow.queue_ns_per_op"] * float64(c.migBatches) / 1e9},
		{"runtime (gc)", m["runtime.gc_cpu_share"] * repCPU},
		{"bench (sink)", m["bench.sink_ns_per_pair"] * float64(r.pairs) / 1e9},
	}
	var explained float64
	fmt.Fprintf(log, "ledger: process CPU of a timed rep %.3f s (median), estimates by layer:\n", repCPU)
	for _, l := range ledger {
		explained += l.cpuS
		fmt.Fprintf(log, "  %-14s %8.3f s  %5.1f%%\n", l.layer, l.cpuS, 100*l.cpuS/repCPU)
	}
	fmt.Fprintf(log, "  %-14s %8.3f s  %5.1f%%  (unattributed: reshuffler, controller, channels, scheduling)\n",
		"core", repCPU-explained, 100*(repCPU-explained)/repCPU)
	m["join.cpu_share"] = joinCPU / repCPU
	m["bench.ledger_coverage"] = explained / repCPU
	if cov := m["bench.ledger_coverage"]; cov < 0.5 || cov > 1.2 {
		fmt.Fprintf(log, "warning: ledger coverage %.2f is outside 0.5-1.2\n", cov)
	}

	spans := tr.all()
	fmt.Fprintf(log, "spans of the traced pass (self = duration minus what child spans cover):\n")
	for _, ct := range selfTimes(spans) {
		fmt.Fprintf(log, "  %-26s %8d spans  total %9.3f ms  self %9.3f ms\n", ct.name, ct.count, float64(ct.totalNS)/1e6, float64(ct.selfNS)/1e6)
	}
	limit := cfg.foldAbove
	if limit == 0 {
		limit = foldAbove
	}
	path := filepath.Join(cfg.outDir, "trace-"+sp.name+".json")
	if err := tr.write(path, sp.name, cfg.seed, limit); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(log, "trace: %d spans written to %s\n", len(spans), path)
	return nil
}

// snapshotCPU estimates the CPU the traced rep's checkpoints spent
// encoding snapshots: bytes handed to the backend at the replay's
// snapshot rate. Backend write time is mostly waiting for the disk and
// is left out of the CPU ledger.
func snapshotCPU(r *repResult, m map[string]float64) float64 {
	if r.backend == nil || m["storage.snapshot_mb_per_s"] <= 0 {
		return 0
	}
	return float64(r.backend.bytes) / 1e6 / m["storage.snapshot_mb_per_s"]
}

// loadNewest reads the newest committed generation back through the
// backend and decodes its chain, as a restore would: one storage.load
// span with the backend's share as its child.
func loadNewest(tr *tracer, b *timedBackend) (err error) {
	id, t0 := tr.newID(), time.Now()
	defer func() { tr.addID(0, id, span{Name: "storage.load", Rep: b.rep}, t0, time.Now()) }()
	gens, err := b.Generations()
	if err != nil {
		return err
	}
	if len(gens) == 0 {
		return fmt.Errorf("no committed generation")
	}
	l0 := time.Now()
	blobs, err := b.Load(gens[0])
	tr.add(0, span{Parent: id, Name: "storage.backend_load", Rep: b.rep}, l0, time.Now())
	if err != nil {
		return err
	}
	_, err = storage.DecodeOperatorSnapshotChain(blobs)
	return err
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.2f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
