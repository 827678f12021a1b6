// Package baseline simulates the content-sensitive operator the
// paper's evaluation compares against (§5): SHJ, the parallel symmetric
// hash join of [19][33] that partitions both inputs by join key. SHJSim
// is its cost-model simulator; the live SHJ is the core operator's hash
// route (core.NewSHJ), and both partition with core.HashPartition. SHJ
// balances perfectly on uniform keys and needs no replication, but
// under skew a few workers receive most of the data — the failure mode
// Table 2 quantifies. The static grid baselines StaticMid and StaticOpt
// need no code of their own: they are the core operator without
// adaptivity, pinned to the square or the optimal initial mapping.
package baseline

import (
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/metrics"
)

// SHJSim is the deterministic replay of the parallel symmetric hash
// join, the counterpart of core.Sim for the content-sensitive
// baseline. Unlike the grid operator, per-worker load depends on the
// key distribution, so the sim tracks exact per-worker tuple counts
// and per-key multiset overlaps for output counting.
type SHJSim struct {
	j    int
	cost metrics.CostModel
	// ResidualSelectivity scales structural key matches.
	resSel float64

	inW    []float64 // per-worker input tuples
	bytesW []float64 // per-worker input bytes
	outW   []float64 // per-worker output pairs
	rKeys  map[int64]int64
	sKeys  map[int64]int64
	r, s   int64
	// SizeR / SizeS are per-tuple byte sizes (default 1).
	SizeR, SizeS int64
}

// NewSHJSim returns a simulator over j hash-partitioned workers.
func NewSHJSim(j int, cost metrics.CostModel, residualSelectivity float64) *SHJSim {
	if residualSelectivity == 0 {
		residualSelectivity = 1
	}
	return &SHJSim{
		j: j, cost: cost, resSel: residualSelectivity,
		inW: make([]float64, j), bytesW: make([]float64, j), outW: make([]float64, j),
		rKeys: make(map[int64]int64), sKeys: make(map[int64]int64),
		SizeR: 1, SizeS: 1,
	}
}

// Process ingests one tuple with the given equi-join key.
func (s *SHJSim) Process(side matrix.Side, key int64) {
	w := core.HashPartition(key, s.j)
	s.inW[w]++
	var matches int64
	if side == matrix.SideR {
		s.r++
		s.bytesW[w] += float64(s.SizeR)
		matches = s.sKeys[key]
		s.rKeys[key]++
	} else {
		s.s++
		s.bytesW[w] += float64(s.SizeS)
		matches = s.rKeys[key]
		s.sKeys[key]++
	}
	s.outW[w] += float64(matches) * s.resSel
}

// Finish returns the summary under the same cost model as core.Sim.
func (s *SHJSim) Finish() core.Result {
	var maxIn, maxBytes, makespan, out float64
	spilled := false
	for w := 0; w < s.j; w++ {
		if s.inW[w] > maxIn {
			maxIn = s.inW[w]
		}
		if s.bytesW[w] > maxBytes {
			maxBytes = s.bytesW[w]
		}
		work := s.inW[w]*s.cost.InputCost + s.outW[w]*s.cost.OutputCost
		if s.cost.MemCapTuples > 0 && s.inW[w] > float64(s.cost.MemCapTuples) {
			over := s.inW[w] - float64(s.cost.MemCapTuples)
			work += over * s.cost.InputCost * (s.cost.SpillFactor - 1)
			spilled = true
		}
		if work > makespan {
			makespan = work
		}
		out += s.outW[w]
	}
	var total, totalBytes float64
	for _, v := range s.inW {
		total += v
	}
	for _, v := range s.bytesW {
		totalBytes += v
	}
	return core.Result{
		J:            s.j,
		R:            s.r,
		S:            s.s,
		MaxILFTuples: maxIn,
		MaxILFBytes:  maxBytes,
		TotalStorage: total, // SHJ stores each tuple exactly once
		TotalBytes:   totalBytes,
		OutputPairs:  out,
		Makespan:     makespan,
		Throughput:   metrics.Throughput(s.r+s.s, makespan),
		Spilled:      spilled,
	}
}

// Imbalance returns max/mean worker input, the skew damage indicator.
func (s *SHJSim) Imbalance() float64 {
	var max, sum float64
	for _, v := range s.inW {
		if v > max {
			max = v
		}
		sum += v
	}
	if sum == 0 {
		return 1
	}
	return max / (sum / float64(s.j))
}
