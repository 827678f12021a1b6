// Command bench is the repository's benchmark: five workloads that
// drive the adaptive join operator through its public surface, five
// end-to-end metrics per workload (six on ckpt_equi), and a traced
// pass that prices every layer from outside. See README.md.
//
//	go run ./bench                    every workload, end-to-end metrics
//	go run ./bench -trace             every workload, per-layer metrics and bench/out/trace-*.json
//	go run ./bench -workload hot_band one workload in this process
//	go run ./bench -aa 3              three suites back to back, A/A table against the bounds
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the exit code is 1 if
// any rep missed the oracle or any operation failed.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// defaultSeconds is how long one workload run measures unless -seconds
// says otherwise; BENCHMARK.json's run_seconds is the same number.
const defaultSeconds = 12

// quickDiv is what -quick divides every stream by.
const quickDiv = 25

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	aa       int
	quick    bool
	full     bool
	manifest bool
	out      string
}

func main() {
	var o options
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "run only this workload, in this process (default: every workload, each in a fresh process)")
	fs.Int64Var(&o.seed, "seed", 2014, "seed of the input generators")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "how long one workload run measures")
	fs.BoolVar(&o.trace, "trace", false, "traced pass: per-layer metrics and bench/out/trace-<workload>.json")
	fs.IntVar(&o.aa, "aa", 0, "run the suite N times and print the A/A table against the bounds")
	fs.BoolVar(&o.quick, "quick", false, "streams 1/25 the size: a smoke run, not a measurement")
	fs.BoolVar(&o.full, "full", false, "result line carries every metric measured, not only the contract's set (the suite uses it)")
	fs.BoolVar(&o.manifest, "manifest", false, "print BENCHMARK.json as this program defines it, and exit")
	fs.StringVar(&o.out, "out", "bench/out", "directory for traces and scratch files")
	_ = fs.Parse(joinBoolValue(os.Args[1:], "trace")) // ExitOnError
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		os.Exit(2)
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		os.Exit(2)
	}
	var err error
	switch {
	case o.manifest:
		var data []byte
		if data, err = manifestJSON(); err == nil {
			_, err = os.Stdout.Write(data)
		}
	case o.workload != "":
		err = runOne(o)
	case o.aa > 0:
		err = runAA(o)
	default:
		_, err = runSuite(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// joinBoolValue rewrites "-name 0" and "-name 1" to "-name=0" and
// "-name=1": the driver passes --trace a separate value, which the
// flag package does not accept for a boolean.
func joinBoolValue(args []string, name string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-"+name || a == "--"+name) && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// result is the contract's last-line object.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload in this process and prints its metrics,
// then the result line.
func runOne(o options) error {
	sp, ok := specByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.quick {
		sp = sp.scaled(quickDiv)
	}
	rp, err := runWorkload(runConfig{sp: sp, seed: o.seed, seconds: o.seconds, trace: o.trace, outDir: o.out, log: os.Stdout})
	if err != nil {
		return err
	}
	defs := sixEndToEnd()
	if o.trace {
		defs = perLayer
	}
	res := result{Correct: rp.Correct, Attempted: rp.Attempted, Failed: rp.Failed, Metrics: map[string]metricValue{}}
	fmt.Printf("%-34s %16s %-9s %-7s %s\n", "metric", "value", "unit", "better", "bound")
	for _, d := range defs {
		v := rp.Metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		bound, note := "", ""
		if d.bound > 0 {
			bound = fmt.Sprintf("%.2f", d.bound)
		}
		if !d.definedOn(sp.name) {
			note = "  (not defined on this workload)"
		}
		fmt.Printf("%-34s %16.6g %-9s %-7s %s%s\n", d.name, v, d.unit, d.better, bound, note)
		// Without -trace the contract's result line holds its five
		// end-to-end metrics and nothing else.
		if o.trace || o.full || d.name != ckptP50.name {
			res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
	fmt.Printf("attempted %d operations, %d failed\n", rp.Attempted, rp.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rp.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", sp.name, rp.Failed, rp.Attempted)
	}
	return nil
}

// runChild runs one workload in a fresh process, so that heap state
// and the resident-set high-water mark do not leak between workloads,
// and parses its result line.
func runChild(o options, workload string, echo io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace=" + strconv.FormatBool(o.trace),
		"-out", o.out, "-full"}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(&stdout, echo)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return result{}, fmt.Errorf("%s: %w", workload, runErr)
		}
		return result{}, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	return res, nil
}

// runSuite runs every workload once and returns the results by
// workload name.
func runSuite(o options, echo io.Writer) (map[string]result, error) {
	out := map[string]result{}
	var failed []string
	for _, sp := range specs() {
		res, err := runChild(o, sp.name, echo)
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(echo)
		out[sp.name] = res
		if !res.Correct {
			failed = append(failed, sp.name)
		}
	}
	if !o.trace {
		fmt.Fprintf(echo, "%-16s", "workload")
		defs := sixEndToEnd()
		for _, d := range defs {
			fmt.Fprintf(echo, " %14s", d.name)
		}
		fmt.Fprintln(echo)
		for _, sp := range specs() {
			fmt.Fprintf(echo, "%-16s", sp.name)
			for _, d := range defs {
				if d.definedOn(sp.name) {
					fmt.Fprintf(echo, " %14.6g", out[sp.name].Metrics[d.name].Value)
				} else {
					fmt.Fprintf(echo, " %14s", "-")
				}
			}
			fmt.Fprintln(echo)
		}
	}
	if len(failed) > 0 {
		return out, fmt.Errorf("workloads with failed operations: %s", strings.Join(failed, ", "))
	}
	return out, nil
}

// runAA runs the suite o.aa times back to back and prints, for every
// workload and end-to-end metric, the runs' medians, their relative
// range, and PASS or FAIL against the metric's bound.
func runAA(o options) error {
	o.trace = false
	runs := make([]map[string]result, o.aa)
	for i := range runs {
		fmt.Fprintf(os.Stderr, "bench: A/A suite %d of %d\n", i+1, o.aa)
		var err error
		if runs[i], err = runSuite(o, io.Discard); err != nil {
			return err
		}
	}
	fmt.Printf("A/A: %d suites of the same code, seed %d, %g s per run\n", o.aa, o.seed, o.seconds)
	fmt.Printf("%-16s %-14s %-40s %8s %6s  %s\n", "workload", "metric", "medians", "range", "bound", "")
	ok := true
	for _, sp := range specs() {
		for _, d := range sixEndToEnd() {
			if !d.definedOn(sp.name) {
				continue
			}
			vals := make([]float64, o.aa)
			strs := make([]string, o.aa)
			for i, r := range runs {
				vals[i] = r[sp.name].Metrics[d.name].Value
				strs[i] = fmt.Sprintf("%.5g", vals[i])
			}
			rng := (quantile(vals, 1) - quantile(vals, 0)) / median(vals)
			verdict := "PASS"
			if !(rng <= d.bound) {
				verdict, ok = "FAIL", false
			}
			fmt.Printf("%-16s %-14s %-40s %7.1f%% %5.0f%%  %s\n", sp.name, d.name, strings.Join(strs, " "), 100*rng, 100*d.bound, verdict)
		}
	}
	if !ok {
		return fmt.Errorf("A/A runs disagree by more than a bound")
	}
	return nil
}
