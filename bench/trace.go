package main

import (
	"encoding/json"
	"math/bits"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the call. Start and End are nanoseconds since the tracer's
// epoch; Parent 0 marks a root.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Rep identifies the rep (or replay) the span belongs to.
	Rep int `json:"rep"`
	// N is the count attached at the boundary: tuples of a send, pairs
	// of a sink callback, bytes of a backend write.
	N int64 `json:"n,omitempty"`
}

// laneBackend is the lane of the checkpoint coordinator's backend
// calls; lane 0 is the feeder and lanes 1..joiners the sink shards.
const (
	laneBackend = 1 + joiners
	numLanes    = 2 + joiners
)

// tracer keeps spans in memory, one append-only buffer per recording
// goroutine (lane), and writes them out when the run ends.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64
	lanes  [numLanes]struct {
		spans []span
		_     [40]byte
	}
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

// add records a span under a fresh id. Each lane has one writer at a
// time: the feeder, one sink shard, or the checkpoint coordinator.
func (t *tracer) add(lane int, s span, start, end time.Time) {
	t.addID(lane, t.newID(), s, start, end)
}

// addID records a span whose id was handed out before it began, so
// that its children could name it.
func (t *tracer) addID(lane int, id uint64, s span, start, end time.Time) {
	s.ID = id
	s.Start, s.End = int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch))
	t.lanes[lane].spans = append(t.lanes[lane].spans, s)
}

// timed records fn as a root span on the feeder lane (the replays,
// which belong to no rep).
func (t *tracer) timed(name string, n int64, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	t.add(0, span{Name: name, N: n}, t0, t1)
	return t1.Sub(t0)
}

func (t *tracer) all() []span {
	var out []span
	for i := range t.lanes {
		out = append(out, t.lanes[i].spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// foldedClass stands for the spans of one name under one parent once
// that name has more instances than the fold threshold: their count,
// total duration, total attached count and a histogram of durations
// (bucket i holds durations in [2^i, 2^(i+1)) ns).
type foldedClass struct {
	Name    string  `json:"name"`
	Parent  uint64  `json:"parent"`
	Count   int64   `json:"count"`
	TotalNS int64   `json:"total_ns"`
	N       int64   `json:"n,omitempty"`
	Hist    []int64 `json:"hist_log2_ns"`
}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Spans    []span        `json:"spans"`
	Folded   []foldedClass `json:"folded,omitempty"`
}

// foldAbove is the instance count beyond which a span class is written
// as per-parent totals instead of span by span.
const foldAbove = 100_000

// fold splits spans into those written one by one and the folded
// classes: every name with more than limit instances.
func fold(spans []span, limit int) ([]span, []foldedClass) {
	perName := map[string]int{}
	for i := range spans {
		perName[spans[i].Name]++
	}
	type key struct {
		name   string
		parent uint64
	}
	classes := map[key]*foldedClass{}
	kept := spans[:0:0]
	for _, s := range spans {
		if perName[s.Name] <= limit {
			kept = append(kept, s)
			continue
		}
		k := key{s.Name, s.Parent}
		c := classes[k]
		if c == nil {
			c = &foldedClass{Name: s.Name, Parent: s.Parent}
			classes[k] = c
		}
		d := s.End - s.Start
		c.Count++
		c.TotalNS += d
		c.N += s.N
		b := bits.Len64(uint64(max(d, 1))) - 1
		for len(c.Hist) <= b {
			c.Hist = append(c.Hist, 0)
		}
		c.Hist[b]++
	}
	folded := make([]foldedClass, 0, len(classes))
	for _, c := range classes {
		folded = append(folded, *c)
	}
	sort.Slice(folded, func(i, j int) bool {
		if folded[i].Name != folded[j].Name {
			return folded[i].Name < folded[j].Name
		}
		return folded[i].Parent < folded[j].Parent
	})
	return kept, folded
}

func (t *tracer) write(path, workload string, seed int64, limit int) error {
	kept, folded := fold(t.all(), limit)
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: kept, Folded: folded})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// classTime is one span class's totals: self time is a span's duration
// minus the part of it its children cover.
type classTime struct {
	name            string
	count           int64
	totalNS, selfNS int64
}

// selfTimes sums duration and self time per span name.
func selfTimes(spans []span) []classTime {
	children := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	byName := map[string]*classTime{}
	for _, s := range spans {
		c := byName[s.Name]
		if c == nil {
			c = &classTime{name: s.Name}
			byName[s.Name] = c
		}
		d := s.End - s.Start
		c.count++
		c.totalNS += d
		c.selfNS += d - covered(children[s.ID], s.Start, s.End)
	}
	out := make([]classTime, 0, len(byName))
	for _, c := range byName {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].totalNS > out[j].totalNS })
	return out
}

// covered returns how much of [lo, hi] the intervals cover; children
// on different goroutines overlap, so it is the length of their union.
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	end := lo
	for _, v := range iv {
		a, b := max(v[0], end), min(v[1], hi)
		if b > a {
			sum += b - a
			end = b
		}
	}
	return sum
}
