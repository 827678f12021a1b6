// Package baseline implements the content-sensitive operator the
// paper's evaluation compares against (§5): SHJ, the parallel
// symmetric hash join of [19][33] that partitions both inputs by join
// key, live and as a cost-model simulator (SHJSim). SHJ balances
// perfectly on uniform keys and needs no replication, but under skew a
// few workers receive most of the data — the failure mode Table 2
// quantifies. The static grid baselines StaticMid and StaticOpt need
// no code of their own: they are the core operator without adaptivity,
// pinned to the square or the optimal initial mapping.
package baseline

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/join"
	"repro/internal/metrics"
	"repro/internal/storage"
)

// SHJ is the baseline parallel symmetric hash join operator. It
// implements core.Engine, so the pipeline layer and the experiment
// harnesses drive it exactly like the grid operators.
type SHJ struct {
	cfg     core.Config
	met     *metrics.Operator
	runner  dataflow.Runner
	inboxes []chan join.Tuple
	seq     atomic.Uint64
	stores  []*storage.Store
	// lifeMu guards done against Send/SendBatch racing Finish: senders
	// hold the read side while checking the flag and pushing into an
	// inbox, Finish takes the write side before closing the inboxes —
	// so a send either lands before the close or observes done and
	// returns ErrFinished, never a send-on-closed-channel panic.
	lifeMu  sync.RWMutex
	started bool
	done    bool
	// stop is the runner's cancellation signal; finishedCh releases
	// the context watcher once Finish completes.
	stop       <-chan struct{}
	finishedCh chan struct{}
}

var _ core.Engine = (*SHJ)(nil)

// NewSHJ builds the operator from the hash-partitioned surface of cfg
// — J workers (any positive count), an equi-join Pred, Storage,
// DataQueueCap and the EmitBatch/EmitShard sinks (a worker's shard id
// is its index) — or reports why cfg cannot; call Start before Send.
func NewSHJ(cfg core.Config) (*SHJ, error) {
	if err := cfg.Validate(core.HashEngine); err != nil {
		return nil, err
	}
	s := &SHJ{cfg: cfg, met: metrics.NewOperator(cfg.J), finishedCh: make(chan struct{})}
	s.stop = s.runner.Done()
	for i := 0; i < cfg.J; i++ {
		s.inboxes = append(s.inboxes, make(chan join.Tuple, cfg.DataQueueCap))
		s.stores = append(s.stores, storage.NewStore(cfg.Pred, cfg.Storage))
	}
	return s, nil
}

// Start launches the workers.
func (s *SHJ) Start() { s.StartContext(context.Background()) }

// StartContext launches the workers under ctx; cancellation stops
// them promptly and surfaces through Send, SendBatch, and Finish.
func (s *SHJ) StartContext(ctx context.Context) {
	s.lifeMu.Lock()
	if s.started {
		s.lifeMu.Unlock()
		panic("baseline: SHJ Start called twice")
	}
	s.started = true
	s.lifeMu.Unlock()
	for i := 0; i < s.cfg.J; i++ {
		i := i
		s.runner.Go(fmt.Sprintf("shj-worker-%d", i), func() error {
			met := s.met.JoinerStats(i)
			store := s.stores[i]
			// Tuples arrive one at a time, so each is a one-tuple run
			// through the store's batch API; both buffers are reused.
			run := make([]join.Tuple, 1)
			var pairs []join.Pair
			emit := s.cfg.EmitBatch
			if shardFn := s.cfg.EmitShard; shardFn != nil {
				// This goroutine is the shard's only emitter.
				emit = func(ps []join.Pair) { shardFn(i, ps) }
			}
			for {
				var t join.Tuple
				var ok bool
				select {
				case t, ok = <-s.inboxes[i]:
					if !ok {
						return nil
					}
				case <-s.stop:
					return nil
				}
				met.InputTuples.Add(1)
				met.InputBytes.Add(t.Bytes())
				run[0] = t
				store.AddBatchCollect(run, &pairs)
				if len(pairs) > 0 {
					met.OutputPairs.Add(int64(len(pairs)))
					if emit != nil {
						emit(pairs)
					}
					pairs = pairs[:0]
				}
				met.StoredTuples.Store(int64(store.TotalLen()))
				met.StoredBytes.Store(store.Bytes())
				met.SpilledTuples.Store(store.Metrics.SpilledTuples.Load())
			}
		})
	}
	s.runner.WatchContext(ctx, s.finishedCh)
}

// Partition returns the worker a key hashes to.
func (s *SHJ) Partition(key int64) int { return int(hash64(uint64(key)) % uint64(s.cfg.J)) }

// Send routes one tuple to the worker owning its key. Content
// sensitivity is the point: both relations partition on the join key,
// so matching tuples always meet — and popular keys always collide.
// After Finish it returns core.ErrFinished; after cancellation, the
// stop cause.
func (s *SHJ) Send(t join.Tuple) error {
	s.lifeMu.RLock()
	defer s.lifeMu.RUnlock()
	if s.done {
		return core.ErrFinished
	}
	t.Seq = s.seq.Add(1)
	select {
	case s.inboxes[s.Partition(t.Key)] <- t:
		return nil
	case <-s.stop:
		return s.runner.Err()
	}
}

// SendBatch feeds a run of tuples in order. SHJ's partitioning is
// per-tuple content-sensitive, so the batch form is a convenience
// loop, not an amortization.
func (s *SHJ) SendBatch(ts []join.Tuple) error {
	for i := range ts {
		if err := s.Send(ts[i]); err != nil {
			return err
		}
	}
	return nil
}

// Finish closes the input and waits for the workers.
func (s *SHJ) Finish() error {
	s.lifeMu.Lock()
	if s.done {
		s.lifeMu.Unlock()
		return nil
	}
	s.done = true
	for _, in := range s.inboxes {
		close(in)
	}
	s.lifeMu.Unlock()
	err := s.runner.Wait()
	close(s.finishedCh)
	for _, st := range s.stores {
		_ = st.Close()
	}
	return err
}

// Metrics exposes the per-worker counters.
func (s *SHJ) Metrics() *metrics.Operator { return s.met }

// hash64 is a 64-bit finalizer (splitmix64) giving a well-mixed
// content-sensitive partition.
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
