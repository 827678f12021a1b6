package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/metrics"
)

// Decompose splits an arbitrary machine count into its power-of-two
// components, largest first (§4.2.2: "J has a unique decomposition
// into a sum of powers of two").
func Decompose(j int) []int {
	if j <= 0 {
		panic(fmt.Sprintf("core: Decompose(%d)", j))
	}
	var out []int
	for bit := 62; bit >= 0; bit-- {
		if j&(1<<bit) != 0 {
			out = append(out, 1<<bit)
		}
	}
	return out
}

// Grouped is the generalized operator for machine counts that are not
// powers of two (§4.2.2): machines split into power-of-two groups,
// each running an independent adaptive operator. Every tuple joins
// against the stored state of every group (probe-only traffic) but is
// stored in exactly one group, chosen with probability proportional to
// group size, so expected storage per machine matches the single-group
// operator within a factor of two (competitive ratio 3.75).
//
// Deviation from the paper: instead of the
// per-block forwarding trees the paper uses to give all groups a
// consistent view of tuple arrival order, each group runs a single
// reshuffler and Send fans out tuples in one goroutine. This yields
// the same guarantee — any two tuples are observed in the same order
// by every machine of every group — with one serialization point, the
// analogue of the paper's O(log J) forwarding latency.
type Grouped struct {
	cfg    Config
	groups []*Operator
	sizes  []int
	seq    atomic.Uint64
	rng    *rand.Rand
	done   atomic.Bool
	// sendMu serializes Send/SendBatch: the grouped mode's correctness
	// rests on every group observing tuples in one arrival order, and
	// the pipeline layer may interleave a chaining bridge's SendBatch
	// with external sends from another goroutine.
	sendMu sync.Mutex
}

// NewGrouped builds the operator, or reports why cfg cannot; call
// Start before Send. J may be any positive count. Each group receives
// only the grouped surface of cfg — predicate, adaptivity (groups adapt
// independently and asynchronously, as in the paper), ε, a warmup
// scaled to its size, storage, sinks, latency sampling and a derived
// seed; the other knobs keep the group defaults. EmitShard ids are
// cluster-wide: group g's joiners shard at its cumulative size offset,
// so per-shard serialization composes across groups.
func NewGrouped(cfg Config) (*Grouped, error) {
	if err := cfg.Validate(GroupedEngine); err != nil {
		return nil, err
	}
	gr := &Grouped{cfg: cfg, sizes: Decompose(cfg.J), rng: rand.New(rand.NewSource(cfg.Seed ^ 0x9009))}
	shardBase := 0
	for i, sz := range gr.sizes {
		op, err := NewOperator(Config{
			J:              sz,
			Pred:           cfg.Pred,
			Adaptive:       cfg.Adaptive,
			NumReshufflers: 1, // single router per group: total order
			SourceLanes:    1, // Grouped assigns seqs itself; lanes would break the shared order
			Epsilon:        cfg.Epsilon,
			Warmup:         cfg.Warmup * int64(sz) / int64(cfg.J),
			Storage:        cfg.Storage,
			EmitBatch:      cfg.EmitBatch,
			EmitShard:      cfg.EmitShard,
			EmitShardBase:  shardBase,
			Latency:        cfg.Latency,
			Seed:           cfg.Seed ^ int64(i)<<32,
		})
		if err != nil {
			return nil, err
		}
		gr.groups = append(gr.groups, op)
		shardBase += sz
	}
	return gr, nil
}

// Groups returns the sizes of the power-of-two groups.
func (gr *Grouped) Groups() []int { return append([]int(nil), gr.sizes...) }

// Start launches all groups.
func (gr *Grouped) Start() { gr.StartContext(context.Background()) }

// StartContext launches all groups under ctx; cancellation stops every
// group's tasks and surfaces through Send/SendBatch and Finish (see
// Operator.StartContext).
func (gr *Grouped) StartContext(ctx context.Context) {
	for _, op := range gr.groups {
		op.StartContext(ctx)
	}
}

// Metrics returns a point-in-time aggregation of every group's
// counters: joiner blocks are concatenated across groups (so ILF and
// storage maxima are cluster-wide) and operator-level event counters
// are summed. The returned value is a snapshot — it does not track
// counters that advance after the call.
func (gr *Grouped) Metrics() *metrics.Operator {
	ms := make([]*metrics.Operator, len(gr.groups))
	for i, op := range gr.groups {
		ms[i] = op.Metrics()
	}
	return metrics.Merged(ms...)
}

// storingGroup picks the group that stores a tuple with routing value
// u: the low 32 bits of u select a machine index in [0, J) whose group
// owns the tuple, giving P(group i) = J_i / J. The high bits remain
// free for the per-group partition choice.
func (gr *Grouped) storingGroup(u uint64) int {
	v := int((u & 0xffffffff) * uint64(gr.cfg.J) >> 32)
	for i, sz := range gr.sizes {
		if v < sz {
			return i
		}
		v -= sz
	}
	return len(gr.sizes) - 1
}

// Send feeds one tuple: it is stored in exactly one group and probes
// the stored state of all others. Sends serialize internally — the
// single arrival order every group observes is what keeps cross-group
// results consistent (§4.2.2). After Finish it returns ErrFinished.
func (gr *Grouped) Send(t join.Tuple) error {
	gr.sendMu.Lock()
	defer gr.sendMu.Unlock()
	if gr.done.Load() {
		return ErrFinished
	}
	t.Seq = gr.seq.Add(1)
	gr.assignU(&t)
	owner := gr.storingGroup(t.U)
	var first error
	for i, op := range gr.groups {
		var err error
		if i == owner {
			err = op.sendStored(t)
		} else {
			err = op.sendProbe(t)
		}
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SendBatch feeds a run of tuples with one sequence-number fetch and
// one envelope delivery per group: every group receives the whole run
// in stream order (owner groups as stored items, the rest as
// probe-only items), preserving the cross-group arrival-order
// consistency Send provides tuple by tuple. Like Send it serializes
// internally and may be freely interleaved with Send from any
// goroutine.
func (gr *Grouped) SendBatch(ts []join.Tuple) error {
	gr.sendMu.Lock()
	defer gr.sendMu.Unlock()
	if gr.done.Load() {
		return ErrFinished
	}
	n := len(ts)
	if n == 0 {
		return nil
	}
	base := gr.seq.Add(uint64(n)) - uint64(n) + 1
	envs := make([][]sourceItem, len(gr.groups))
	for g := range envs {
		envs[g] = getItems(n)
	}
	for i := range ts {
		t := ts[i]
		t.Seq = base + uint64(i)
		gr.assignU(&t)
		owner := gr.storingGroup(t.U)
		for g := range envs {
			envs[g] = append(envs[g], sourceItem{t: t, probeOnly: g != owner})
		}
	}
	var first error
	for g, op := range gr.groups {
		if err := op.sendItems(envs[g]); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// assignU draws the routing randomness for one tuple.
func (gr *Grouped) assignU(t *join.Tuple) {
	t.U = gr.rng.Uint64()
	if t.U == 0 {
		t.U = 1 // 0 means "unassigned" to the reshufflers
	}
}

// Finish drains and stops every group. It takes the send lock first,
// so a Send/SendBatch racing Finish either completes its delivery to
// every group or observes done and returns ErrFinished — never a
// partial delivery that stores a tuple in one group but skips its
// probes of the others.
func (gr *Grouped) Finish() error {
	gr.sendMu.Lock()
	defer gr.sendMu.Unlock()
	if gr.done.Swap(true) {
		return nil
	}
	var first error
	for _, op := range gr.groups {
		if err := op.Finish(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// StoredTuples returns the per-group stored tuple counts.
func (gr *Grouped) StoredTuples() []int64 {
	out := make([]int64, len(gr.groups))
	for i, op := range gr.groups {
		m := op.Metrics()
		var sum int64
		for j := 0; j < m.NumJoiners(); j++ {
			sum += m.JoinerStats(j).StoredTuples.Load()
		}
		out[i] = sum
	}
	return out
}

// MaxILFTuples returns the largest per-machine input across all
// groups. The bound of §4.2.2: at most twice the optimal single-group
// ILF, for an overall competitive ratio of 3.75.
func (gr *Grouped) MaxILFTuples() int64 {
	var max int64
	for _, op := range gr.groups {
		if v := op.Metrics().MaxILFTuples(); v > max {
			max = v
		}
	}
	return max
}

// Migrations returns the total elementary migrations across groups.
func (gr *Grouped) Migrations() int64 {
	var sum int64
	for _, op := range gr.groups {
		sum += op.Migrations()
	}
	return sum
}

// GroupMappings returns each group's deployed mapping (after Finish).
func (gr *Grouped) GroupMappings() []matrix.Mapping {
	out := make([]matrix.Mapping, len(gr.groups))
	for i, op := range gr.groups {
		out[i] = op.DeployedMapping()
	}
	return out
}
