// Command benchdelta compares a `go test -bench` run piped on stdin
// against the committed BENCH_*.json trajectory and prints the
// ns/tuple delta per configuration. The trajectory file is discovered
// automatically: whichever BENCH_PR*.json has the highest pr number is
// the baseline, so adding BENCH_PR<n+1>.json re-bases the comparison
// with no tooling change.
//
// Since PR 6 the comparison gates: any stable-benchmark configuration
// slower than the committed point by more than -tolerance percent
// (default 25) makes benchdelta exit non-zero. Scaling rows
// (BenchmarkScaling*) print but are exempt from the tolerance gate:
// their committed points are machine-shaped (a 1-CPU host records flat
// rows, a 4-vCPU runner does not), and the reshuffler count follows
// GOMAXPROCS, so rows at different procs run different configurations.
// Checkpoint rows (BenchmarkCheckpoint, the PR-8 durability plane) print their
// ms/ckpt delta against the committed point but are likewise exempt
// from the tolerance gate: a checkpoint pause is dominated by the
// host's memory bandwidth and (in the file mode) fsync latency, both
// machine-shaped; what the trajectory gates instead is that ingest
// stays inside tolerance with checkpointing disabled.
//
// It understands these line shapes:
//
//	BenchmarkOperatorIngest/batch=N            ... ns/op       (per-tuple Send plane)
//	BenchmarkOperatorIngest/sendbatch=N        ... ns/op       (SendBatch front end)
//	BenchmarkOperatorIngestFanout/<mode>       ... ns/tuple    (output-dominated workload)
//	BenchmarkStoreBuild/<mode>                 ... ns/tuple    (insert-dominated store build)
//	BenchmarkPipelineChain/<mode>              ... ns/tuple    (two chained equi-join stages)
//	BenchmarkScalingIngest/j=J/procs=P         ... ns/tuple    (concurrent-feeder scaling grid)
//	BenchmarkScalingFanout/j=J/procs=P         ... ns/tuple    (output-dominated scaling row)
//	BenchmarkCheckpoint/<mode>                 ... ms/ckpt     (checkpoint pause vs state size)
//	BenchmarkCheckpointIncremental/<mode>      ... ms/ckpt     (delta-chain pause vs forced-full)
//	BenchmarkTransportLink/<carrier>           ... ns/envelope (chan pipe vs loopback TCP)
//
// Transport rows (PR 10) are informational like the checkpoint rows:
// the chan/tcp gap is the price of crossing a process boundary, not a
// regression, and TCP loopback latency is kernel-shaped. The local
// data path the tolerance gate protects does not run any link code.
//
// Usage:
//
//	scripts/benchdelta.sh                  # full set, gating
//	scripts/benchdelta.sh -tolerance -1    # print deltas only
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
)

// point is one committed trajectory measurement.
type point struct {
	BatchSize  int     `json:"batch_size,omitempty"`
	Mode       string  `json:"mode,omitempty"`
	NsPerTuple float64 `json:"ns_per_tuple"`
}

// scalingPoint is one committed scaling-grid measurement: a
// (benchmark, J, GOMAXPROCS) cell of the concurrent-feeder trajectory.
type scalingPoint struct {
	Bench        string  `json:"bench"` // "ingest" or "fanout"
	J            int     `json:"j"`
	Procs        int     `json:"procs"`
	NsPerTuple   float64 `json:"ns_per_tuple"`
	TuplesPerSec float64 `json:"tuples_per_sec,omitempty"`
}

// checkpointPoint is one committed durability-plane measurement: the
// checkpoint pause and serialization rate at a given state size.
type checkpointPoint struct {
	Mode            string  `json:"mode"` // e.g. "tuples=100000/mem"
	MsPerCheckpoint float64 `json:"ms_per_checkpoint"`
	MBPerSec        float64 `json:"mb_per_sec,omitempty"`
	SnapMB          float64 `json:"snap_mb,omitempty"`
}

// incrementalPoint is one committed incremental-checkpoint measurement
// (PR 9): the checkpoint pause and average committed payload at a
// given delta fraction, delta-chain vs forced-full mode.
type incrementalPoint struct {
	Mode            string  `json:"mode"` // e.g. "frac=10pct/delta"
	MsPerCheckpoint float64 `json:"ms_per_checkpoint"`
	PayloadMB       float64 `json:"payload_mb,omitempty"`
}

// transportPoint is one committed data-plane link measurement (PR 10):
// the per-envelope cost of a carrier (in-process chan pipe or loopback
// TCP).
type transportPoint struct {
	Mode          string  `json:"mode"` // "chan" or "tcp"
	NsPerEnvelope float64 `json:"ns_per_envelope"`
}

// trajectory mirrors the BENCH_PR*.json schema. Older files only have
// Results; SendBatchResults and FanoutResults appear from PR 3 on,
// StoreBuildResults from PR 4, ChainResults from PR 5, ScalingResults
// from PR 6, CheckpointResults from PR 8.
type trajectory struct {
	PR                int               `json:"pr"`
	Benchmark         string            `json:"benchmark"`
	Results           []point           `json:"results"`
	SendBatchResults  []point           `json:"sendbatch_results"`
	FanoutResults     []point           `json:"fanout_results"`
	StoreBuildResults []point           `json:"storebuild_results"`
	ChainResults      []point           `json:"chain_results"`
	ScalingResults    []scalingPoint    `json:"scaling_results"`
	CheckpointResults []checkpointPoint `json:"checkpoint_results"`
	// IncrementalResults appears from PR 9 on.
	IncrementalResults []incrementalPoint `json:"incremental_results"`
	// TransportResults appears from PR 10 on.
	TransportResults []transportPoint `json:"transport_results"`
}

// ingestLine matches e.g.
// BenchmarkOperatorIngest/batch=32-4   500000   1973 ns/op   24.69 msgs/batch
var ingestLine = regexp.MustCompile(`^BenchmarkOperatorIngest/(batch|sendbatch)=(\d+)\S*\s+\d+\s+([\d.]+) ns/op`)

// fanoutLine matches e.g.
// BenchmarkOperatorIngestFanout/sendbatch=32-4   3   474078088 ns/op   4741 ns/tuple   48.85 pairs/tuple
// (the -procs suffix is absent on single-CPU runners).
var fanoutLine = regexp.MustCompile(`^BenchmarkOperatorIngestFanout/(\S+?)(?:-\d+)?\s.*?([\d.]+) ns/tuple`)

// storeLine matches e.g.
// BenchmarkStoreBuild/reserve=exact-4   3   28018547 ns/op   106.9 ns/tuple   0 steady-allocs/tuple
var storeLine = regexp.MustCompile(`^BenchmarkStoreBuild/(\S+?)(?:-\d+)?\s.*?([\d.]+) ns/tuple`)

// chainLine matches e.g.
// BenchmarkPipelineChain/pipeline-4   20   149866266 ns/op   60895 final-pairs   2141 ns/tuple
var chainLine = regexp.MustCompile(`^BenchmarkPipelineChain/(\S+?)(?:-\d+)?\s.*?([\d.]+) ns/tuple`)

// scalingLine matches e.g.
// BenchmarkScalingIngest/j=16/procs=4-4   1   93187135 ns/op   465.9 ns/tuple   2146271 tuples/s
var scalingLine = regexp.MustCompile(`^BenchmarkScaling(Ingest|Fanout)/j=(\d+)/procs=(\d+)(?:-\d+)?\s.*?([\d.]+) ns/tuple`)

// checkpointLine matches e.g.
// BenchmarkCheckpoint/tuples=100000/mem-4   18   61712349 ns/op   64.92 MB/s   61.71 ms/ckpt   4.006 snap-MB
var checkpointLine = regexp.MustCompile(`^BenchmarkCheckpoint/(\S+?)(?:-\d+)?\s.*?([\d.]+) ms/ckpt`)

// incrementalLine matches e.g.
// BenchmarkCheckpointIncremental/frac=10pct/delta-4   15   22933188 ns/op   22.93 ms/ckpt   1.887 payload-MB
var incrementalLine = regexp.MustCompile(`^BenchmarkCheckpointIncremental/(\S+?)(?:-\d+)?\s.*?([\d.]+) ms/ckpt`)

// transportLine matches e.g.
// BenchmarkTransportLink/tcp-4   50000   24034 ns/op   170.4 MB/s   24035 ns/envelope
var transportLine = regexp.MustCompile(`^BenchmarkTransportLink/(\S+?)(?:-\d+)?\s.*?([\d.]+) ns/envelope`)

func main() {
	tolerance := flag.Float64("tolerance", 25,
		"max regression (percent) vs the committed trajectory before exiting non-zero; negative disables the gate")
	flag.Parse()

	committed := loadLatest()
	if committed == nil {
		fmt.Println("benchdelta: no BENCH_*.json trajectory found; nothing to compare")
		return
	}
	base := make(map[string]float64)
	for _, r := range committed.Results {
		base["batch="+strconv.Itoa(r.BatchSize)] = r.NsPerTuple
	}
	for _, r := range committed.SendBatchResults {
		base["sendbatch="+strconv.Itoa(r.BatchSize)] = r.NsPerTuple
	}
	for _, r := range committed.FanoutResults {
		base["fanout/"+r.Mode] = r.NsPerTuple
	}
	for _, r := range committed.StoreBuildResults {
		base["storebuild/"+r.Mode] = r.NsPerTuple
	}
	for _, r := range committed.ChainResults {
		base["chain/"+r.Mode] = r.NsPerTuple
	}
	for _, r := range committed.ScalingResults {
		base[scalingKey(r.Bench, r.J, r.Procs)] = r.NsPerTuple
	}
	for _, r := range committed.CheckpointResults {
		base["checkpoint/"+r.Mode] = r.MsPerCheckpoint
	}
	for _, r := range committed.IncrementalResults {
		base["incremental/"+r.Mode] = r.MsPerCheckpoint
	}
	for _, r := range committed.TransportResults {
		base["transport/"+r.Mode] = r.NsPerEnvelope
	}

	var regressions []string

	sc := bufio.NewScanner(os.Stdin)
	found := false
	for sc.Scan() {
		var (
			key       string
			ns        float64
			unit      = "ns/tuple"
			scaling   bool
			ckpt      bool
			transport bool
		)
		if m := transportLine.FindStringSubmatch(sc.Text()); m != nil {
			key = "transport/" + m[1]
			ns, _ = strconv.ParseFloat(m[2], 64)
			unit = "ns/envelope"
			transport = true
		} else if m := incrementalLine.FindStringSubmatch(sc.Text()); m != nil {
			key = "incremental/" + m[1]
			ns, _ = strconv.ParseFloat(m[2], 64)
			unit = "ms/ckpt"
			ckpt = true
		} else if m := checkpointLine.FindStringSubmatch(sc.Text()); m != nil {
			key = "checkpoint/" + m[1]
			ns, _ = strconv.ParseFloat(m[2], 64)
			unit = "ms/ckpt"
			ckpt = true
		} else if m := scalingLine.FindStringSubmatch(sc.Text()); m != nil {
			bench := map[string]string{"Ingest": "ingest", "Fanout": "fanout"}[m[1]]
			j, _ := strconv.Atoi(m[2])
			procs, _ := strconv.Atoi(m[3])
			key = scalingKey(bench, j, procs)
			ns, _ = strconv.ParseFloat(m[4], 64)
			scaling = true
		} else if m := ingestLine.FindStringSubmatch(sc.Text()); m != nil {
			key = m[1] + "=" + m[2]
			ns, _ = strconv.ParseFloat(m[3], 64)
		} else if m := fanoutLine.FindStringSubmatch(sc.Text()); m != nil {
			key = "fanout/" + m[1]
			ns, _ = strconv.ParseFloat(m[2], 64)
		} else if m := storeLine.FindStringSubmatch(sc.Text()); m != nil {
			key = "storebuild/" + m[1]
			ns, _ = strconv.ParseFloat(m[2], 64)
		} else if m := chainLine.FindStringSubmatch(sc.Text()); m != nil {
			key = "chain/" + m[1]
			ns, _ = strconv.ParseFloat(m[2], 64)
		} else {
			continue
		}
		found = true
		ref, ok := base[key]
		switch {
		case ok && ref > 0:
			delta := 100 * (ns - ref) / ref
			note := ""
			if scaling {
				// Committed scaling rows are machine-shaped; the
				// tolerance gate would compare a laptop against a CI
				// runner.
				note = "  [scaling: not tolerance-gated]"
			} else if ckpt {
				// Checkpoint pauses are bandwidth/fsync-shaped; the
				// trajectory gates ingest-with-durability-off instead.
				note = "  [checkpoint: not tolerance-gated]"
			} else if transport {
				// The chan/tcp gap is the price of a process boundary
				// and loopback TCP is kernel-shaped; informational only.
				note = "  [transport: not tolerance-gated]"
			} else if *tolerance >= 0 && delta > *tolerance {
				note = "  [REGRESSION]"
				regressions = append(regressions,
					fmt.Sprintf("%s +%.1f%% (tolerance %.0f%%)", key, delta, *tolerance))
			}
			fmt.Printf("%-28s %8.0f %-8s  committed(PR %d) %8.0f  delta %+6.1f%%%s\n",
				key, ns, unit, committed.PR, ref, delta, note)
		default:
			fmt.Printf("%-28s %8.0f %-8s  (no committed point)\n", key, ns, unit)
		}
	}
	if !found {
		fmt.Println("benchdelta: no benchmark lines on stdin")
	}

	for _, r := range regressions {
		fmt.Printf("benchdelta: REGRESSION %s\n", r)
	}
	if len(regressions) > 0 {
		os.Exit(1)
	}
}

func scalingKey(bench string, j, procs int) string {
	return fmt.Sprintf("scaling/%s/j=%d/procs=%d", bench, j, procs)
}

// loadLatest returns the highest-PR trajectory file, or nil.
func loadLatest() *trajectory {
	paths, _ := filepath.Glob("BENCH_PR*.json")
	var latest *trajectory
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		var tr trajectory
		if json.Unmarshal(raw, &tr) != nil {
			continue
		}
		if len(tr.Results) > 0 && (latest == nil || tr.PR > latest.PR) {
			t := tr
			latest = &t
		}
	}
	return latest
}
