// Package metrics collects the performance measures the paper's
// evaluation reports: the input-load factor (ILF) per machine and its
// competitive ratio against the omniscient optimum, total cluster
// storage, throughput, tuple latency, and migration traffic (§3.3,
// §5). Counters are atomic so collector goroutines can read them while
// tasks run; derived figures are computed on demand.
package metrics

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Joiner holds the per-joiner counters that define the ILF and the
// cost model. All fields are atomically updated by the owning joiner.
type Joiner struct {
	// InputTuples counts tuples received (data + migration), the
	// quantity the ILF measures.
	InputTuples atomic.Int64
	// InputBytes is the byte volume of received tuples.
	InputBytes atomic.Int64
	// StoredTuples / StoredBytes track the resident state.
	StoredTuples atomic.Int64
	StoredBytes  atomic.Int64
	// OutputPairs counts emitted join results.
	OutputPairs atomic.Int64
	// MigratedIn / MigratedOut count state-relocation traffic.
	MigratedIn  atomic.Int64
	MigratedOut atomic.Int64
	// SpilledTuples counts tuples that overflowed to the disk tier.
	SpilledTuples atomic.Int64
	// ArenaBytes / DirectoryBytes are the resident bytes behind
	// StoredTuples — arena blocks and index directories as
	// join.Index.Footprint reports them — refreshed with the other
	// stored-state gauges, once per envelope.
	ArenaBytes     atomic.Int64
	DirectoryBytes atomic.Int64

	// The counters above are 80 bytes; the trailing pad rounds each
	// block to two full cache lines so adjacent blocks never share one.
	// Each block is written by its own joiner goroutine, and adjacent
	// blocks belong to different joiners running on different cores — an
	// unpadded array of blocks would ping the line between cores on
	// every counter bump.
	_ [48]byte
}

// Operator aggregates per-joiner counters and operator-level events.
type Operator struct {
	mu      sync.RWMutex
	joiners []*Joiner

	// Migrations counts mapping changes; Expansions elastic splits.
	Migrations atomic.Int64
	Expansions atomic.Int64
	// RoutedMessages counts reshuffler->joiner sends (the paper's
	// "replicated messages", J * ILF in aggregate).
	RoutedMessages atomic.Int64
	// DummyTuples counts padding tuples injected to bound the
	// cardinality ratio.
	DummyTuples atomic.Int64
	// LaneSpills is always 0: the source-lane front end that counted
	// spills is gone. The field stays only because the benchmark
	// harness (bench/rep.go) still reports it; it goes with the
	// benchmark revision of ROADMAP item 14.
	LaneSpills atomic.Int64

	// BatchesSent counts data envelopes shipped by reshufflers (once
	// each, however many joiners of a row or column share it);
	// BatchedMessages counts the tuples they carried, so
	// BatchedMessages/BatchesSent is the realized mean batch size.
	BatchesSent     atomic.Int64
	BatchedMessages atomic.Int64
	// BatchFlush* break batch flushes down by cause: a full envelope,
	// the linger-budget timer, an idle reshuffler, and the protocol
	// barriers (epoch signal, checkpoint marker, EOS) that must separate
	// old-epoch from new-epoch traffic on every link.
	BatchFlushFull   atomic.Int64
	BatchFlushLinger atomic.Int64
	BatchFlushIdle   atomic.Int64
	BatchFlushSignal atomic.Int64

	// MigBatchesSent counts messages pushed on migration links:
	// kMigBegin and kMigDone framing plus kMigBlocks, each carrying up
	// to a columnar chunk of relocated tuples.
	MigBatchesSent atomic.Int64
	// Checkpoints counts committed barrier checkpoints (snapshot made
	// durable and the replay log trimmed to the cut).
	Checkpoints atomic.Int64
	// CheckpointFailures counts barrier checkpoints whose backend
	// commit failed after retries. Under the Degrade policy the
	// operator keeps joining (the replay log stays untrimmed, so no
	// durability is silently lost); each failed boundary bumps this.
	CheckpointFailures atomic.Int64
	// MigrationNanos accumulates wall time from each elementary epoch
	// step's broadcast to its last joiner ack — migration steps and
	// elastic expansions alike: the drain time of the relocated state
	// under Alg. 3. Divide by Migrations+Expansions for a per-step
	// figure.
	MigrationNanos atomic.Int64
	// DataFrameBytes counts the payload bytes of the data frames a
	// coordinator sent over its worker links — destination ids,
	// envelope header and body, the transport's frame header aside —
	// so DataFrameBytes over the tuples they carried is the wire cost
	// of a routed tuple.
	DataFrameBytes atomic.Int64
	// ReplayLogItems and ReplayLogBytes gauge a checkpointing
	// operator's replay log: the items it retains and what the
	// allocator holds for its blocks, spare ones included (payload
	// bytes aside). Every append, trim and stop-path undo moves them.
	ReplayLogItems atomic.Int64
	ReplayLogBytes atomic.Int64
}

// MeanBatchSize returns the realized mean tuples per data envelope, or
// 0 before any envelope has shipped.
func (m *Operator) MeanBatchSize() float64 {
	n := m.BatchesSent.Load()
	if n == 0 {
		return 0
	}
	return float64(m.BatchedMessages.Load()) / float64(n)
}

// NewOperator returns metrics for j joiners.
func NewOperator(j int) *Operator {
	m := &Operator{}
	m.Grow(j)
	return m
}

// Grow extends the joiner set (elastic expansion).
func (m *Operator) Grow(to int) {
	m.mu.Lock()
	for len(m.joiners) < to {
		m.joiners = append(m.joiners, &Joiner{})
	}
	m.mu.Unlock()
}

// JoinerStats returns the counter block for joiner id.
func (m *Operator) JoinerStats(id int) *Joiner {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.joiners[id]
}

// NumJoiners returns the current joiner count.
func (m *Operator) NumJoiners() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.joiners)
}

// MaxILFBytes returns the maximum per-joiner input volume in bytes —
// the ILF under the paper's definition (§3.3): input size equals
// eventual storage size, and the max over machines is the binding
// constraint for memory provisioning.
func (m *Operator) MaxILFBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var max int64
	for _, j := range m.joiners {
		if v := j.InputBytes.Load(); v > max {
			max = v
		}
	}
	return max
}

// MaxILFTuples returns the maximum per-joiner input tuple count.
func (m *Operator) MaxILFTuples() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var max int64
	for _, j := range m.joiners {
		if v := j.InputTuples.Load(); v > max {
			max = v
		}
	}
	return max
}

// TotalStorageBytes returns the cluster-wide stored volume (the right
// axis of Fig. 6b).
func (m *Operator) TotalStorageBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var sum int64
	for _, j := range m.joiners {
		sum += j.StoredBytes.Load()
	}
	return sum
}

// ResidentBytesPerTuple returns what one stored tuple costs in memory
// cluster-wide — arena blocks plus index directories over stored
// tuples — and the directories' share of it; zeros when nothing is
// stored. Joiners hosted by remote workers keep their gauges there and
// do not contribute.
func (m *Operator) ResidentBytesPerTuple() (total, directory float64) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var arena, dir, tuples int64
	for _, j := range m.joiners {
		arena += j.ArenaBytes.Load()
		dir += j.DirectoryBytes.Load()
		tuples += j.StoredTuples.Load()
	}
	if tuples == 0 {
		return 0, 0
	}
	return float64(arena+dir) / float64(tuples), float64(dir) / float64(tuples)
}

// TotalInputTuples returns the cluster-wide received tuple count.
func (m *Operator) TotalInputTuples() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var sum int64
	for _, j := range m.joiners {
		sum += j.InputTuples.Load()
	}
	return sum
}

// TotalOutputPairs returns the cluster-wide emitted result count.
func (m *Operator) TotalOutputPairs() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var sum int64
	for _, j := range m.joiners {
		sum += j.OutputPairs.Load()
	}
	return sum
}

// TotalMigrated returns total migrated-out tuples (state relocation
// traffic).
func (m *Operator) TotalMigrated() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var sum int64
	for _, j := range m.joiners {
		sum += j.MigratedOut.Load()
	}
	return sum
}

// AnySpill reports whether any joiner overflowed to disk — the
// condition marked with [*] in Table 2.
func (m *Operator) AnySpill() bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, j := range m.joiners {
		if j.SpilledTuples.Load() > 0 {
			return true
		}
	}
	return false
}

// CostModel converts joiner counters into simulated execution time,
// the deterministic substitute for the paper's wall-clock runtimes.
// Every received tuple costs InputCost work units (demarshalling,
// indexing, probing); every emitted pair costs OutputCost; tuples
// beyond MemCapTuples cost SpillFactor times more (BerkeleyDB random
// I/O). The operator's makespan is the maximum per-joiner work, since
// joiners run in parallel and the slowest one gates completion.
type CostModel struct {
	InputCost   float64
	OutputCost  float64
	SpillFactor float64
	// MemCapTuples is the per-joiner in-memory budget in tuples;
	// 0 disables the spill penalty.
	MemCapTuples int64
}

// DefaultCostModel mirrors the calibration used across experiments:
// output processing is a quarter of input processing, and spilled work
// is 12x slower, matching the one-order-of-magnitude degradation the
// paper reports for out-of-core operation.
func DefaultCostModel(memCap int64) CostModel {
	return CostModel{InputCost: 1, OutputCost: 0.25, SpillFactor: 12, MemCapTuples: memCap}
}

// JoinerWork returns the simulated work units for one joiner.
func (c CostModel) JoinerWork(j *Joiner) float64 {
	in := float64(j.InputTuples.Load())
	out := float64(j.OutputPairs.Load())
	work := in*c.InputCost + out*c.OutputCost
	if c.MemCapTuples > 0 {
		if over := j.InputTuples.Load() - c.MemCapTuples; over > 0 {
			// Tuples beyond the cap pay the I/O multiplier.
			work += float64(over) * c.InputCost * (c.SpillFactor - 1)
		}
	}
	return work
}

// Makespan returns the simulated completion time: the max joiner work.
func (c CostModel) Makespan(m *Operator) float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var max float64
	for _, j := range m.joiners {
		if w := c.JoinerWork(j); w > max {
			max = w
		}
	}
	return max
}

// Spills reports whether any joiner exceeds the memory cap under the
// cost model.
func (c CostModel) Spills(m *Operator) bool {
	if c.MemCapTuples <= 0 {
		return false
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, j := range m.joiners {
		if j.InputTuples.Load() > c.MemCapTuples {
			return true
		}
	}
	return false
}

// Series is an (x, y) sample sequence for figure regeneration.
type Series struct {
	mu sync.Mutex
	X  []float64
	Y  []float64
}

// Add appends a sample.
func (s *Series) Add(x, y float64) {
	s.mu.Lock()
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
	s.mu.Unlock()
}

// Len returns the number of samples.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.X)
}

// MaxY returns the maximum y sample, or 0 if empty.
func (s *Series) MaxY() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	max := 0.0
	for _, y := range s.Y {
		if y > max {
			max = y
		}
	}
	return max
}

// At returns sample i.
func (s *Series) At(i int) (x, y float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.X[i], s.Y[i]
}

// LatencySampler estimates per-tuple latency as defined in §5: the
// time between an output pair's emission and the arrival of its more
// recent input tuple. Sources record arrival times for a 1/Rate sample
// of sequence numbers; joiners look up the newer tuple of each emitted
// pair.
type LatencySampler struct {
	mu      sync.Mutex
	arrival map[uint64]time.Time
	lats    []time.Duration
	// Rate samples one of every Rate sequence numbers; 0 disables.
	Rate uint64
}

// NewLatencySampler returns a sampler recording every rate-th tuple.
func NewLatencySampler(rate uint64) *LatencySampler {
	return &LatencySampler{arrival: make(map[uint64]time.Time), Rate: rate}
}

// Sampled reports whether seq is in the sample.
func (l *LatencySampler) Sampled(seq uint64) bool {
	return l.Rate != 0 && seq%l.Rate == 0
}

// Arrive records the arrival time of a sampled tuple. The first
// arrival wins: a tuple replayed after a restore is measured from its
// earliest ingestion.
func (l *LatencySampler) Arrive(seq uint64) {
	if !l.Sampled(seq) {
		return
	}
	now := time.Now()
	l.mu.Lock()
	if _, ok := l.arrival[seq]; !ok {
		l.arrival[seq] = now
	}
	l.mu.Unlock()
}

// Emit records an output pair; newerSeq is max(seq_r, seq_s).
func (l *LatencySampler) Emit(newerSeq uint64) {
	if !l.Sampled(newerSeq) {
		return
	}
	now := time.Now()
	l.mu.Lock()
	if t0, ok := l.arrival[newerSeq]; ok {
		l.lats = append(l.lats, now.Sub(t0))
	}
	l.mu.Unlock()
}

// Mean returns the mean sampled latency, or 0 with ok=false if no
// samples were captured.
func (l *LatencySampler) Mean() (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.lats) == 0 {
		return 0, false
	}
	var sum time.Duration
	for _, d := range l.lats {
		sum += d
	}
	return sum / time.Duration(len(l.lats)), true
}

// Quantile returns the q-quantile (0..1) of sampled latencies.
func (l *LatencySampler) Quantile(q float64) (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.lats) == 0 {
		return 0, false
	}
	sorted := append([]time.Duration(nil), l.lats...)
	for i := 1; i < len(sorted); i++ { // insertion sort; samples are few
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx], true
}

// Count returns the number of captured latency samples.
func (l *LatencySampler) Count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.lats)
}

// RatioTracker records the ILF competitive ratio over time (Fig. 8c)
// and its running maximum.
type RatioTracker struct {
	mu     sync.Mutex
	series Series
	max    float64
}

// Observe records ratio at input position x (tuples processed).
func (r *RatioTracker) Observe(x, ratio float64) {
	r.mu.Lock()
	r.series.Add(x, ratio)
	if ratio > r.max {
		r.max = ratio
	}
	r.mu.Unlock()
}

// Max returns the peak observed ratio.
func (r *RatioTracker) Max() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.max
}

// Series returns the recorded samples.
func (r *RatioTracker) Series() *Series { return &r.series }

// Throughput returns tuples per simulated time unit, guarding against
// zero makespan.
func Throughput(tuples int64, makespan float64) float64 {
	if makespan <= 0 {
		return math.Inf(1)
	}
	return float64(tuples) / makespan
}
