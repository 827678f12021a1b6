// Package experiments regenerates every table and figure of the
// paper's evaluation (§5). Each experiment drives the deterministic
// simulators (core.Sim, baseline.SHJSim) — and, for the latency
// figure, the live concurrent operator — over the same TPC-H workloads
// the paper uses, and renders the same rows or series the paper
// reports. Absolute numbers are cost-model units rather than
// blade-cluster seconds; the shapes (who wins, by what factor, where
// crossovers fall) are the reproduction target.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/join"
	"repro/internal/metrics"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// Options tunes experiment scale. Zero values select the defaults.
type Options struct {
	// SF is the base TPC-H scale factor (default 0.05; figures that
	// sweep dataset size multiply it).
	SF float64
	// J is the base machine count where the experiment doesn't fix it.
	J int
	// Seed drives data generation.
	Seed int64
}

func (o *Options) fill() {
	if o.SF == 0 {
		o.SF = 0.05
	}
	if o.J == 0 {
		o.J = 64
	}
	if o.Seed == 0 {
		o.Seed = 2014
	}
}

// driveEngine streams one query through a live engine — the operator
// on its grid or its hash (SHJ) route — over the uniform core.Engine
// surface: start, feed the generated stream, finish. It
// returns the tuple count fed and the first engine error.
func driveEngine(e core.Engine, q workload.Query, g *tpch.Gen) (int64, error) {
	e.Start()
	var total int64
	var sendErr error
	q.Stream(g, func(t join.Tuple) bool {
		if sendErr = e.Send(t); sendErr != nil {
			return false
		}
		total++
		return true
	})
	err := e.Finish()
	if err == nil {
		err = sendErr
	}
	return total, err
}

// Table is a printable experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Fprint renders the table with aligned columns.
func (t Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintln(w, "  note: "+n)
	}
	fmt.Fprintln(w)
}

// Runner is one experiment entry point.
type Runner func(Options) []Table

// Registry maps experiment ids (table2, fig6a, ...) to runners, in
// presentation order.
func Registry() (ids []string, m map[string]Runner) {
	m = map[string]Runner{
		"table2": Table2,
		"fig6a":  Fig6a,
		"fig6b":  Fig6b,
		"fig6c":  Fig6c,
		"fig6d":  Fig6d,
		"fig7a":  Fig7a,
		"fig7b":  Fig7b,
		"fig7c":  Fig7c,
		"fig7d":  Fig7d,
		"fig8a":  Fig8a,
		"fig8b":  Fig8b,
		"fig8c":  Fig8c,
		"fig8d":  Fig8d,
	}
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, m
}

// gen builds the TPC-H database for the options and a skew setting.
func gen(o Options, sf, z float64) *tpch.Gen {
	return tpch.NewGen(tpch.Config{SF: sf, Zipf: z, Seed: o.Seed})
}

// runGrid replays a query through the grid-operator simulator.
func runGrid(q workload.Query, g *tpch.Gen, cfg core.SimConfig) (*core.Sim, core.Result) {
	cfg.MatchWidth = q.MatchWidth
	cfg.SizeR = int64(q.SizeR)
	cfg.SizeS = int64(q.SizeS)
	sim := core.NewSim(cfg)
	q.Stream(g, func(t join.Tuple) bool {
		sim.Process(t.Rel, t.Key)
		return true
	})
	return sim, sim.Finish()
}

// runSHJ replays an equi-join query through the SHJ simulator.
func runSHJ(q workload.Query, g *tpch.Gen, j int, cost metrics.CostModel) core.Result {
	sim := baseline.NewSHJSim(j, cost, 1)
	sim.SizeR, sim.SizeS = int64(q.SizeR), int64(q.SizeS)
	q.Stream(g, func(t join.Tuple) bool {
		sim.Process(t.Rel, t.Key)
		return true
	})
	return sim.Finish()
}

// warmupFor returns the adaptation warmup: ~1% of the expected input,
// the paper's "begin adapting after 500K tuples, less than 1% of the
// total input" (§5.4).
func warmupFor(total int64) int64 {
	w := total / 100
	if w < 64 {
		w = 64
	}
	return w
}

// mb renders bytes as MB with enough precision for reduced-scale runs.
func mb(bytes float64) string { return fmt.Sprintf("%.3f", bytes/1e6) }

// units renders cost-model work units (the stand-in for seconds).
func units(work float64) string { return fmt.Sprintf("%.0f", work) }

// spillMark appends the paper's [*] overflow marker.
func spillMark(v string, spilled bool) string {
	if spilled {
		return v + "*"
	}
	return v
}
