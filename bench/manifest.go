package main

import "encoding/json"

// manifest is BENCHMARK.json: the contract between this benchmark and
// whatever runs it. `go run ./bench -manifest` prints it from the
// tables the program itself measures by, and the smoke test holds the
// committed file to it.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestBounded  `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type manifestBounded struct {
	manifestMetric
	Bound float64 `json:"bound"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"sh", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, sp := range specs() {
		m.Workloads = append(m.Workloads, manifestWorkload{Name: sp.name, Why: sp.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestBounded{manifestMetric{d.name, d.unit, d.better}, d.bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.name, d.unit, d.better})
	}
	return m
}

func manifestJSON() ([]byte, error) {
	data, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
