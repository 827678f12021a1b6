package core

import (
	"fmt"

	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/metrics"
)

// Sim is the deterministic, single-threaded replay of the operator:
// the same decision algorithm (Alg. 2) and the same migration cost
// accounting (Lemma 4.4), but with blocking migrations and expected-
// value state sizes. Because the grid operator is content-insensitive
// and all joiners are symmetric, per-joiner quantities are exact
// expectations (aggregate / J), which makes figure regeneration
// bit-identical across runs — the role the paper's long cluster runs
// play for its plots. The concurrent Operator validates the same
// numbers live; the Sim produces the curves.
type Sim struct {
	cfg SimConfig
	dec *Decider

	r, s        int64 // tuples ingested per relation
	inPerJ      float64
	inBytesPerJ float64
	workPerJ    float64
	outPerJ     float64
	migrated    float64 // global migrated tuples
	migEvents   int
	expansons   int
	j           int

	// Exact output counting via key multiset overlap.
	rKeys, sKeys map[int64]int64
	outPairs     float64

	// Figure series.
	ILFSeries   metrics.Series // x: tuples processed, y: per-joiner input bytes (ILF)
	TimeSeries  metrics.Series // x: tuples processed, y: cumulative work units
	Ratio       metrics.RatioTracker
	MigWindows  []MigWindow
	sampleEvery int64
}

// MigWindow records one migration for Fig. 8c's shaded regions.
type MigWindow struct {
	AtTuple int64          // stream position when triggered
	From    matrix.Mapping // mapping before
	To      matrix.Mapping // mapping after (chain target)
	Volume  float64        // per-joiner migrated tuples
}

// SimConfig configures a simulation run.
type SimConfig struct {
	J        int
	Initial  matrix.Mapping
	Adaptive bool
	Epsilon  float64
	Warmup   int64
	// MatchWidth configures output counting: -1 = no output counting,
	// 0 = equi (matching keys), w > 0 = band of half-width w.
	MatchWidth int64
	// SizeR / SizeS are per-tuple byte sizes for byte-denominated ILF
	// accounting (default 1).
	SizeR, SizeS int64
	// ResidualSelectivity scales structural matches by the residual
	// predicate's pass rate.
	ResidualSelectivity float64
	// Cost is the work model used for the simulated runtime.
	Cost metrics.CostModel
	// SampleEvery records the figure series every N tuples (0: T/100
	// granularity is chosen by the caller via Sample()).
	SampleEvery int64
	// MaxPerJoiner enables elastic expansion at M/2 as in §4.2.2.
	MaxPerJoiner int64
}

// NewSim returns a simulator in the initial mapping.
func NewSim(cfg SimConfig) *Sim {
	if cfg.Initial == (matrix.Mapping{}) {
		cfg.Initial = matrix.Square(cfg.J)
	}
	if cfg.ResidualSelectivity == 0 {
		cfg.ResidualSelectivity = 1
	}
	if cfg.Cost == (metrics.CostModel{}) {
		cfg.Cost = metrics.DefaultCostModel(0)
	}
	if cfg.SizeR <= 0 {
		cfg.SizeR = 1
	}
	if cfg.SizeS <= 0 {
		cfg.SizeS = 1
	}
	return &Sim{
		cfg: cfg,
		dec: NewDecider(DeciderConfig{
			J: cfg.J, Initial: cfg.Initial, Epsilon: cfg.Epsilon,
			Warmup: cfg.Warmup, MaxPerJoiner: cfg.MaxPerJoiner,
		}),
		j:           cfg.J,
		rKeys:       make(map[int64]int64),
		sKeys:       make(map[int64]int64),
		sampleEvery: cfg.SampleEvery,
	}
}

// Mapping returns the currently deployed mapping.
func (sm *Sim) Mapping() matrix.Mapping { return sm.dec.Mapping() }

// Counts returns ingested cardinalities.
func (sm *Sim) Counts() (r, s int64) { return sm.r, sm.s }

// J returns the current joiner count (grows under expansion).
func (sm *Sim) J() int { return sm.j }

// Migrations returns the number of elementary migrations performed.
func (sm *Sim) Migrations() int { return sm.migEvents }

// ILFBytes returns the current per-joiner input volume in bytes.
func (sm *Sim) ILFBytes() float64 { return sm.inBytesPerJ }

// WorkUnits returns the cumulative simulated work (makespan so far).
func (sm *Sim) WorkUnits() float64 { return sm.workPerJ }

// Expansions returns the number of elastic expansions performed.
func (sm *Sim) Expansions() int { return sm.expansons }

// Process ingests one tuple of the given relation with the given join
// key (ignored when MatchWidth < 0).
func (sm *Sim) Process(side matrix.Side, key int64) {
	m := sm.dec.Mapping()
	var copies float64
	if side == matrix.SideR {
		sm.r++
		sm.dec.Observe(1, 0)
		copies = float64(m.M) // one row: m machines
	} else {
		sm.s++
		sm.dec.Observe(0, 1)
		copies = float64(m.N)
	}
	perJ := copies / float64(sm.j)
	size := sm.cfg.SizeR
	if side == matrix.SideS {
		size = sm.cfg.SizeS
	}
	sm.addInput(perJ, perJ*float64(size))

	// Exact expected output: structural matches scaled by residual
	// selectivity, divided evenly across joiners (Thm 3.2: join work
	// is mapping-independent).
	if sm.cfg.MatchWidth >= 0 {
		var matches int64
		opp := sm.sKeys
		if side == matrix.SideS {
			opp = sm.rKeys
		}
		// The sweep stops at hi itself: at math.MaxInt64, k++ wraps.
		for k, hi := join.BandBounds(key, sm.cfg.MatchWidth); k <= hi; k++ {
			matches += opp[k]
			if k == hi {
				break
			}
		}
		if side == matrix.SideR {
			sm.rKeys[key]++
		} else {
			sm.sKeys[key]++
		}
		d := float64(matches) * sm.cfg.ResidualSelectivity
		sm.outPairs += d
		sm.outPerJ += d / float64(sm.j)
		sm.workPerJ += d / float64(sm.j) * sm.cfg.Cost.OutputCost
	}

	if sm.cfg.Adaptive {
		sm.adapt()
	}
	sm.maybeSample()
}

// ProcessBatch ingests a run of same-side tuples with the given keys:
// the batch entry point matching Operator.SendBatch on the replay
// facade. Unlike the concurrent operator, the simulator's whole value
// is bit-identical replay, so the batch form deliberately preserves
// the per-tuple decision cadence (adapt and sample after every tuple)
// rather than amortizing it — it is a convenience for batch-shaped
// drivers, not a semantic variant.
func (sm *Sim) ProcessBatch(side matrix.Side, keys []int64) {
	for _, k := range keys {
		sm.Process(side, k)
	}
}

// addInput charges one joiner-share of input, applying the spill
// multiplier to the portion beyond the memory cap.
func (sm *Sim) addInput(perJ, bytesPerJ float64) {
	sm.inPerJ += perJ
	sm.inBytesPerJ += bytesPerJ
	c := sm.cfg.Cost
	mult := 1.0
	if c.MemCapTuples > 0 && sm.inPerJ > float64(c.MemCapTuples) {
		mult = c.SpillFactor
	}
	sm.workPerJ += perJ * c.InputCost * mult
}

// adapt runs the decision algorithm and performs any migration chain
// and expansion with blocking semantics.
func (sm *Sim) adapt() {
	out := sm.dec.Evaluate()
	if out.Migrate {
		from := sm.dec.Mapping()
		var vol, volBytes float64
		cur := from
		for _, step := range cur.StepsTo(out.Target) {
			tr := matrix.NewTransition(cur, step)
			v := tr.MigrationVolume(float64(sm.r), float64(sm.s))
			vol += v
			size := sm.cfg.SizeR
			if tr.Exchange == matrix.SideS {
				size = sm.cfg.SizeS
			}
			volBytes += v * float64(size)
			sm.migrated += v * float64(sm.j)
			sm.migEvents++
			cur = step
		}
		sm.addInput(vol, volBytes) // migrated tuples are received input
		sm.dec.SetMapping(out.Target)
		sm.MigWindows = append(sm.MigWindows, MigWindow{
			AtTuple: sm.r + sm.s, From: from, To: out.Target, Volume: vol,
		})
	}
	if out.Expand {
		// Every joiner's state is redistributed to its four children;
		// each child receives half of each side (Thm 4.3: cost ≤ 2x
		// stored state, at most half of it crossing machines).
		perJ := sm.inPerJ / 2
		sm.addInput(perJ, sm.inBytesPerJ/2)
		sm.migrated += perJ * float64(sm.j)
		sm.j *= 4
		sm.dec.NoteExpanded()
		sm.expansons++
		// Post-split, per-joiner state is a quarter of the parent's.
		sm.inPerJ /= 4
		sm.inBytesPerJ /= 4
		sm.outPerJ /= 4
	}
}

func (sm *Sim) maybeSample() {
	if sm.sampleEvery <= 0 {
		return
	}
	t := sm.r + sm.s
	if t%sm.sampleEvery != 0 {
		return
	}
	sm.Sample()
}

// Sample records one point of every figure series at the current
// stream position.
func (sm *Sim) Sample() {
	t := float64(sm.r + sm.s)
	sm.ILFSeries.Add(t, sm.inBytesPerJ)
	sm.TimeSeries.Add(t, sm.workPerJ)
	if sm.r > 0 && sm.s > 0 {
		ilf := sm.dec.Mapping().ILF(float64(sm.r), float64(sm.s))
		opt := matrix.Optimal(sm.j, float64(sm.r), float64(sm.s)).ILF(float64(sm.r), float64(sm.s))
		sm.Ratio.Observe(t, ilf/opt)
	}
}

// Result summarizes a finished simulation.
type Result struct {
	J            int
	Final        matrix.Mapping
	R, S         int64
	MaxILFTuples float64 // per-joiner input volume (the ILF, in tuples)
	MaxILFBytes  float64 // per-joiner input volume in bytes
	TotalStorage float64 // cluster-wide stored volume J * ILF (tuples)
	TotalBytes   float64 // cluster-wide stored volume in bytes
	OutputPairs  float64
	Migrated     float64 // global migration traffic in tuples
	Migrations   int
	Expansions   int
	Makespan     float64 // simulated completion time in work units
	Throughput   float64 // input tuples per work unit
	Spilled      bool
}

// Finish closes the run and returns the summary.
func (sm *Sim) Finish() Result {
	sm.Sample()
	c := sm.cfg.Cost
	return Result{
		J:            sm.j,
		Final:        sm.dec.Mapping(),
		R:            sm.r,
		S:            sm.s,
		MaxILFTuples: sm.inPerJ,
		MaxILFBytes:  sm.inBytesPerJ,
		TotalStorage: sm.inPerJ * float64(sm.j),
		TotalBytes:   sm.inBytesPerJ * float64(sm.j),
		OutputPairs:  sm.outPairs,
		Migrated:     sm.migrated,
		Migrations:   sm.migEvents,
		Expansions:   sm.expansons,
		Makespan:     sm.workPerJ,
		Throughput:   metrics.Throughput(sm.r+sm.s, sm.workPerJ),
		Spilled:      c.MemCapTuples > 0 && sm.inPerJ > float64(c.MemCapTuples),
	}
}

func (r Result) String() string {
	return fmt.Sprintf("J=%d final=%v ILF=%.0f makespan=%.0f migrations=%d",
		r.J, r.Final, r.MaxILFTuples, r.Makespan, r.Migrations)
}
