// Command joinrun executes one evaluation query on a chosen operator
// over a freshly generated skewed TPC-H database and reports the
// paper's §5 metrics: output size, per-machine ILF, total storage,
// migrations, wall-clock time and throughput.
//
// Usage:
//
//	joinrun -query EQ5 -op dynamic -j 16 -sf 0.01 -zipf Z4
//
// Operators: dynamic, staticmid, staticopt (the grid route) and shj
// (the hash route). Every operator is driven through the uniform
// squall.Engine surface: one ingest loop, one metrics report. A grid
// operator runs the largest power of two ≤ -j joiners; the report
// prints that count next to the requested one. -timeout aborts a
// runaway run through the engine's context-aware lifecycle.
//
// Durability (grid operators only): -checkpoint-dir enables
// barrier checkpointing against a FileBackend, -checkpoint-every n
// paces automatic checkpoints by ingest volume, and -crash-at arms a
// named fault-injection point so recovery drills can kill the run at a
// precise place (the error is reported and the exit code is nonzero;
// restart with the same -checkpoint-dir to restore).
// -checkpoint-retries wraps the backend in a retrying layer,
// -checkpoint-keep sets the fallback-restore retention depth, and
// -flaky-backend injects probabilistic backend failures so the retry
// and degrade paths can be drilled from the command line.
//
// Distributed mode (grid operators only): -workers addr,addr
// places the joiners on running worker processes (cmd/joinworker, or
// joinrun -listen) over TCP links; -listen turns this process into
// such a worker instead of driving a query. Distributed runs exclude
// checkpointing.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/bits"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	squall "repro"
	"repro/internal/faultpoint"
	"repro/internal/tpch"
	"repro/internal/workload"
)

func main() {
	query := flag.String("query", "EQ5", "query: EQ5, EQ7, BCI, BNCI, Fluct-Join")
	opName := flag.String("op", "dynamic", "operator: dynamic, staticmid, staticopt, shj")
	j := flag.Int("j", 16, "machine count; grid operators run the largest power of two <= j, shj exactly j")
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor")
	zipf := flag.String("zipf", "Z0", "skew setting Z0..Z4")
	seed := flag.Int64("seed", 42, "seed")
	timeout := flag.Duration("timeout", 0, "abort the run after this long (0: no limit)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run (ingest through drain) to this file")
	checkpointDir := flag.String("checkpoint-dir", "",
		"enable barrier checkpointing against this directory (dynamic/static ops only)")
	checkpointEvery := flag.Int64("checkpoint-every", 0,
		"checkpoint automatically every n ingested tuples (requires -checkpoint-dir)")
	crashAt := flag.String("crash-at", "",
		"arm a fault-injection point and let the run die there (see the listed names on a bad value)")
	checkpointRetries := flag.Int("checkpoint-retries", 0,
		"wrap the checkpoint backend in a retry layer re-attempting each failed operation this many times (0 disables; requires -checkpoint-dir)")
	checkpointKeep := flag.Int("checkpoint-keep", 0,
		"retain this many checkpoint generations for last-good fallback restore (0 uses the library default; requires -checkpoint-dir)")
	flakyBackend := flag.Float64("flaky-backend", 0,
		"inject backend failures with this probability per operation, for recovery drills (0 disables, max 1; requires -checkpoint-dir; deterministic under -seed)")
	workers := flag.String("workers", "",
		"comma-separated joinworker addresses; places the joiners on those processes (dynamic/static ops only)")
	listen := flag.String("listen", "",
		"run as a worker process listening on this address instead of driving a query (host:port; :0 picks a free port)")
	spillDir := flag.String("spilldir", "", "worker-local spill directory (requires -listen)")
	flag.Parse()

	if *listen != "" {
		serveWorker(*listen, *spillDir)
		return
	}
	if *spillDir != "" {
		fmt.Fprintf(os.Stderr, "joinrun: -spilldir requires -listen\n")
		os.Exit(2)
	}

	q, ok := workload.ByName(*query)
	if !ok {
		fmt.Fprintf(os.Stderr, "joinrun: unknown query %q\n", *query)
		os.Exit(2)
	}
	if *crashAt != "" && !faultpoint.Known(*crashAt) {
		fmt.Fprintf(os.Stderr, "joinrun: unknown -crash-at point %q; valid points: %s\n",
			*crashAt, strings.Join(faultpoint.Names(), ", "))
		os.Exit(2)
	}
	var workerAddrs []string
	if *workers != "" {
		workerAddrs = strings.Split(*workers, ",")
		if *opName == "shj" {
			// Fail fast instead of silently running single-process: only
			// the grid operators place joiners on workers.
			fmt.Fprintf(os.Stderr, "joinrun: -workers is not supported by -op %s\n", *opName)
			os.Exit(2)
		}
		if *checkpointDir != "" || *checkpointEvery > 0 || *crashAt != "" {
			fmt.Fprintf(os.Stderr, "joinrun: -workers excludes checkpointing (-checkpoint-dir/-checkpoint-every/-crash-at)\n")
			os.Exit(2)
		}
	}
	durable := *checkpointDir != "" || *checkpointEvery > 0 || *crashAt != ""
	if durable && *opName == "shj" {
		// Fail fast instead of silently running undurable: only the
		// grid operators checkpoint.
		fmt.Fprintf(os.Stderr, "joinrun: -checkpoint-dir/-checkpoint-every/-crash-at are not supported by -op %s\n", *opName)
		os.Exit(2)
	}
	if *checkpointEvery > 0 && *checkpointDir == "" {
		fmt.Fprintf(os.Stderr, "joinrun: -checkpoint-every requires -checkpoint-dir\n")
		os.Exit(2)
	}
	if *checkpointEvery < 0 {
		fmt.Fprintf(os.Stderr, "joinrun: -checkpoint-every %d is invalid\n", *checkpointEvery)
		os.Exit(2)
	}
	if *checkpointRetries < 0 {
		fmt.Fprintf(os.Stderr, "joinrun: -checkpoint-retries %d is invalid\n", *checkpointRetries)
		os.Exit(2)
	}
	if *checkpointKeep < 0 {
		fmt.Fprintf(os.Stderr, "joinrun: -checkpoint-keep %d is invalid\n", *checkpointKeep)
		os.Exit(2)
	}
	if *flakyBackend < 0 || *flakyBackend > 1 {
		fmt.Fprintf(os.Stderr, "joinrun: -flaky-backend %g is invalid (want a probability in [0,1])\n", *flakyBackend)
		os.Exit(2)
	}
	if (*checkpointRetries > 0 || *checkpointKeep > 0 || *flakyBackend > 0) && *checkpointDir == "" {
		fmt.Fprintf(os.Stderr, "joinrun: -checkpoint-retries/-checkpoint-keep/-flaky-backend require -checkpoint-dir\n")
		os.Exit(2)
	}
	var backend squall.Backend
	if *checkpointDir != "" {
		fb, err := squall.NewFileBackend(*checkpointDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "joinrun: %v\n", err)
			os.Exit(1)
		}
		backend = fb
		// Decorator order matters: the retry layer goes outermost so it
		// rides out the injected flaky failures underneath it.
		if *flakyBackend > 0 {
			backend = squall.NewFlakyBackend(backend, *flakyBackend, *seed)
		}
		if *checkpointRetries > 0 {
			backend = squall.NewRetryBackend(backend, squall.RetryOptions{
				MaxRetries: *checkpointRetries, Seed: *seed,
			})
		}
	}
	if *crashAt != "" {
		faultpoint.Arm(*crashAt)
	}
	g := tpch.NewGen(tpch.Config{SF: *sf, Zipf: tpch.SkewZ(*zipf), Seed: *seed})
	r, s := q.Cardinalities(g)

	var out atomic.Int64
	emit := func(squall.Pair) { out.Add(1) }
	engine, report := buildEngine(*opName, q, *j, r, s, *seed,
		backend, *checkpointEvery, *checkpointKeep, workerAddrs, emit)

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	engine.StartContext(ctx)

	// stopProfile flushes and closes the CPU profile; it must run on
	// every exit path (os.Exit skips defers) or the file is left
	// unparsable mid-record.
	stopProfile := func() {}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "joinrun: create cpu profile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "joinrun: start cpu profile: %v\n", err)
			os.Exit(1)
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			_ = f.Close()
		}
	}

	start := time.Now()
	var total int64
	var sendErr error
	q.Stream(g, func(t squall.Tuple) bool {
		if sendErr = engine.Send(t); sendErr != nil {
			return false
		}
		total++
		return true
	})
	err := engine.Finish()
	if err == nil {
		err = sendErr
	}
	if err != nil {
		stopProfile()
		fmt.Fprintf(os.Stderr, "joinrun: %v\n", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	// Stop before reporting so the profile covers exactly the
	// ingest-through-drain window the metrics describe.
	stopProfile()

	m := engine.Metrics()
	fmt.Printf("query      %s on %s (J=%d of %d requested, SF=%.3f, %s)\n", q.Name, *opName, m.NumJoiners(), *j, *sf, *zipf)
	fmt.Printf("input      |R|=%d |S|=%d (%d tuples)\n", r, s, total)
	fmt.Printf("output     %d pairs\n", out.Load())
	fmt.Printf("elapsed    %v (%.0f tuples/s)\n", elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds())
	fmt.Printf("ILF        %d tuples/machine (max; mean %d)\n",
		m.MaxILFTuples(), m.TotalInputTuples()/int64(m.NumJoiners()))
	fmt.Printf("storage    %d bytes total, %d migrated tuples (migrations=%d)\n",
		m.TotalStorageBytes(), m.TotalMigrated(), m.Migrations.Load())
	if perTuple, dir := m.ResidentBytesPerTuple(); perTuple > 0 {
		fmt.Printf("resident   %.1f bytes per stored tuple (%.1f arena blocks + %.1f index directory)\n",
			perTuple, perTuple-dir, dir)
	}
	if backend != nil {
		fmt.Printf("durability %d checkpoints committed to %s (%d failed boundaries)\n",
			m.Checkpoints.Load(), *checkpointDir, m.CheckpointFailures.Load())
	}
	report()
}

// buildEngine wires the requested engine through the options API and
// returns it plus an engine-specific postscript for the report.
func buildEngine(name string, q workload.Query, j int, r, s, seed int64,
	backend squall.Backend, checkpointEvery int64, checkpointKeep int,
	workerAddrs []string, emit func(squall.Pair)) (squall.Engine, func()) {
	switch name {
	case "dynamic", "staticmid", "staticopt":
		if j <= 0 {
			fmt.Fprintf(os.Stderr, "joinrun: -op %s needs a positive -j (got %d)\n", name, j)
			os.Exit(2)
		}
		opts := []squall.Option{squall.WithJoiners(j), squall.WithSeed(seed)}
		switch name {
		case "dynamic":
			opts = append(opts, squall.WithAdaptive(), squall.WithWarmup((r+s)/100))
		case "staticopt":
			// The grid runs the largest power of two <= j, and the
			// optimal mapping must be one of that count's shapes.
			grid := 1 << (bits.Len(uint(j)) - 1)
			opts = append(opts, squall.WithInitialMapping(squall.OptimalMapping(grid, float64(r), float64(s))))
		}
		if len(workerAddrs) > 0 {
			opts = append(opts, squall.WithWorkers(workerAddrs...))
		}
		if backend != nil {
			opts = append(opts, squall.WithBackend(backend))
			if checkpointEvery > 0 {
				opts = append(opts, squall.WithCheckpointEvery(checkpointEvery))
			}
			if checkpointKeep > 0 {
				opts = append(opts, squall.WithCheckpointKeep(checkpointKeep))
			}
		}
		e := squall.NewEngine(q.Pred, squall.Each(emit), opts...)
		return e, func() {
			op := e.(*squall.Operator)
			fmt.Printf("mapping    %v\n", op.DeployedMapping())
		}
	case "shj":
		e, err := squall.NewSHJ(q.Pred, squall.Each(emit), squall.WithJoiners(j))
		if err != nil {
			fmt.Fprintf(os.Stderr, "joinrun: -op shj: %v\n", err)
			os.Exit(2)
		}
		return e, func() {}
	default:
		fmt.Fprintf(os.Stderr, "joinrun: unknown operator %q\n", name)
		os.Exit(2)
		return nil, nil
	}
}

// serveWorker runs the process as one worker of a distributed stage:
// bind, announce the actual address (relevant with a :0 port), serve a
// single coordinator session, exit. Functionally the same as
// cmd/joinworker, folded in here so smoke scripts need only one
// binary.
func serveWorker(addr, spillDir string) {
	ws, err := squall.NewWorkerServer(addr, squall.WithStorage(squall.StorageConfig{Dir: spillDir}))
	if err != nil {
		fmt.Fprintf(os.Stderr, "joinrun: %v\n", err)
		os.Exit(1)
	}
	defer ws.Close()
	fmt.Printf("joinrun: listening %s\n", ws.Addr())

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := ws.Serve(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "joinrun: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("joinrun: worker session complete")
}
