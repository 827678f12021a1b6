package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSmoke runs every workload at a fraction of its size, traced pass
// included: no operation may fail, every metric must come out
// well-formed, and every trace must be a forest whose children lie
// inside their parents.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, sp := range specs() {
		sp := sp.scaled(10)
		var log bytes.Buffer
		// A low fold threshold makes the sink and send classes fold, so
		// both trace encodings are checked.
		rp, err := runWorkload(runConfig{sp: sp, seed: 7, seconds: 0.2, trace: true, outDir: out, foldAbove: 100, log: &log})
		if err != nil {
			t.Fatalf("%s: %v\n%s", sp.name, err, log.String())
		}
		if !rp.Correct || rp.Failed != 0 || rp.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", sp.name, rp.Correct, rp.Attempted, rp.Failed, log.String())
		}
		for _, d := range append(sixEndToEnd(), perLayer...) {
			v, ok := rp.Metrics[d.name]
			switch {
			case !d.definedOn(sp.name):
				if v != 0 {
					t.Errorf("%s: %s = %v on a workload it is not defined on", sp.name, d.name, v)
				}
			case math.IsNaN(v) || math.IsInf(v, 0):
				t.Errorf("%s: %s = %v", sp.name, d.name, v)
			case !ok && d.bound > 0:
				t.Errorf("%s: end-to-end metric %s missing", sp.name, d.name)
			case d.bound > 0 && v <= 0:
				t.Errorf("%s: end-to-end metric %s = %v, want positive", sp.name, d.name, v)
			}
		}
		checkTrace(t, filepath.Join(out, "trace-"+sp.name+".json"))
	}
	if left, _ := filepath.Glob(filepath.Join(out, "tmp-*")); len(left) > 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}

func checkTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	byID := map[uint64]span{}
	for _, s := range tf.Spans {
		if s.End < s.Start {
			t.Errorf("%s: span %d %s ends before it starts", path, s.ID, s.Name)
		}
		byID[s.ID] = s
	}
	classes := map[string]bool{}
	for _, s := range tf.Spans {
		classes[s.Name] = true
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("%s: span %d %s names parent %d, which is not in the file", path, s.ID, s.Name, s.Parent)
			continue
		}
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("%s: span %d %s [%d,%d] is not inside its parent %s [%d,%d]", path, s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	for _, f := range tf.Folded {
		classes[f.Name] = true
		if _, ok := byID[f.Parent]; !ok {
			t.Errorf("%s: folded class %s names parent %d, which is not in the file", path, f.Name, f.Parent)
		}
		var n int64
		for _, c := range f.Hist {
			n += c
		}
		if n != f.Count {
			t.Errorf("%s: folded class %s: histogram holds %d of %d spans", path, f.Name, n, f.Count)
		}
	}
	for _, want := range []string{"rep", "squall.new_engine", "core.start", "core.send", "sink.emit", "core.finish", "join.replay", "storage.replay", "transport.replay_tcp"} {
		if !classes[want] {
			t.Errorf("%s: no %s span", path, want)
		}
	}
	if len(tf.Folded) == 0 {
		t.Errorf("%s: nothing folded at a threshold of 100 spans", path)
	}
}

// TestManifest holds the committed BENCHMARK.json to the tables the
// program measures by, and those tables to the contract's limits.
func TestManifest(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from `go run ./bench -manifest`; regenerate it")
	}
	m := buildManifest()
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is malformed", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range m.Workloads {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range m.EndToEnd {
		check("metric", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is malformed", d.Name, d.Unit)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, d := range m.PerLayer {
		check("metric", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is malformed", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if len(m.PerLayer) > 128 || len(m.EndToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics", len(m.PerLayer), len(m.EndToEnd))
	}
}

func TestJoinBoolValue(t *testing.T) {
	got := joinBoolValue([]string{"--workload", "hot_band", "--trace", "0", "--seed", "1", "-trace"}, "trace")
	want := []string{"--workload", "hot_band", "--trace=0", "--seed", "1", "-trace"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %q, want %q", got, want)
	}
}

// TestOracleMatchesNestedLoop checks the windowed oracle against the
// definition of the join on a small band-join stream.
func TestOracleMatchesNestedLoop(t *testing.T) {
	sp, _ := specByName("hot_band")
	ts := genUniform(500, 8)(3, 3000)
	for i := range ts {
		ts[i].Aux = int64(i)
	}
	var pairs int64
	var sum uint64
	for i := range ts {
		for j := range ts {
			if ts[i].Rel == 0 && ts[j].Rel == 1 && sp.pred.Matches(ts[i], ts[j]) {
				pairs++
				sum += pairMix(ts[i].Aux, ts[j].Aux)
			}
		}
	}
	gotPairs, prefixPairs, gotSum := oracle(sp.pred, ts, 1024)
	if gotPairs != pairs || gotSum != sum {
		t.Errorf("oracle: %d pairs checksum %x, nested loop: %d pairs checksum %x", gotPairs, gotSum, pairs, sum)
	}
	var prefix int64
	for i := 0; i < 1024; i++ {
		for j := 0; j < 1024; j++ {
			if ts[i].Rel == 0 && ts[j].Rel == 1 && sp.pred.Matches(ts[i], ts[j]) {
				prefix++
			}
		}
	}
	if prefixPairs != prefix {
		t.Errorf("oracle prefix: %d pairs, nested loop: %d", prefixPairs, prefix)
	}
}

func TestLatHistQuantile(t *testing.T) {
	h := &latHist{}
	for i := 1; i <= 10000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	for _, q := range []float64{0.5, 0.99} {
		got, want := h.quantileMS(q), q*10
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("q%.2f = %.4f ms, want %.4f within 2%%", q, got, want)
		}
	}
	if h.max != 10*time.Millisecond {
		t.Errorf("max %v", h.max)
	}
}

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "rep", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.send", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "sink.emit", Start: 30, End: 60}, // overlaps the send on another goroutine
	}
	for _, ct := range selfTimes(spans) {
		if ct.name == "rep" && ct.selfNS != 50 {
			t.Errorf("rep self time %d, want 50 (100 minus the union [10,60])", ct.selfNS)
		}
	}
}
