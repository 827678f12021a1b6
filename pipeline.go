package squall

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrNotRunning is returned by Stream.Send/SendBatch before the
// pipeline has been started with Run.
var ErrNotRunning = errors.New("squall: pipeline is not running (call Run first)")

// Pipeline is a composable dataflow of join stages — the topology
// surface the paper's operator is one node of (Squall-on-Storm, §5).
// Build stages with Join, chain them with Stream.Join, terminate them
// with Sinks, then drive the whole graph through one context-aware
// lifecycle:
//
//	p := squall.NewPipeline(squall.WithSeed(42))
//	rs := p.Join(squall.Equi("orders"), squall.WithJoiners(16), squall.WithAdaptive())
//	rs.To(squall.Each(func(pr squall.Pair) { ... }))
//	if err := p.Run(ctx); err != nil { ... }
//	rs.Send(...)            // feed R and S tuples
//	if err := p.Wait(); err != nil { ... }
//
// Options passed to NewPipeline are defaults every stage inherits;
// per-stage options override them. Run starts every stage under ctx:
// cancellation stops all tasks and Wait returns the propagated error,
// and a task panic or failure in any stage cancels that stage and
// surfaces the same way instead of being swallowed.
type Pipeline struct {
	defaults []Option
	stages   []*Stream

	mu       sync.Mutex
	running  bool
	finished bool
	waitErr  error
}

// NewPipeline returns an empty pipeline; opts become the defaults
// every stage inherits.
func NewPipeline(opts ...Option) *Pipeline {
	return &Pipeline{defaults: opts}
}

// Join adds a root stage joining two externally fed relations under
// pred: feed its R and S tuples with the returned Stream's
// Send/SendBatch once the pipeline runs.
func (p *Pipeline) Join(pred Predicate, opts ...Option) *Stream {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.running || p.finished {
		panic("squall: Pipeline.Join after Run")
	}
	s := &Stream{p: p, pred: pred, opts: opts}
	p.stages = append(p.stages, s)
	return s
}

// Stream is one join stage of a pipeline: its two inputs are external
// tuples (Send/SendBatch) and/or the re-keyed output of an upstream
// stage, and its output feeds downstream stages (Join) and/or a
// terminal Sink (To).
type Stream struct {
	p        *Pipeline
	pred     Predicate
	opts     []Option
	parent   *Stream
	rekey    func(Pair) Tuple
	sink     Sink
	children []*Stream

	// engine is published atomically by Run: feeder goroutines may
	// legitimately poll Send (observing ErrNotRunning) while Run is
	// still starting stages, and an unsynchronized interface write
	// would be a data race.
	engine atomic.Pointer[Engine]
	// bridgeSize is the size of the forwarding buffers of the bridges
	// that feed this stage (stageConfig.bridgeSize), resolved at Run.
	bridgeSize int
	bridges    []*bridge // one per child, in children order
}

// eng returns the stage's engine, or nil before Run published it.
func (s *Stream) eng() Engine {
	if p := s.engine.Load(); p != nil {
		return *p
	}
	return nil
}

// Join chains a downstream stage onto s: every result pair of s is
// re-keyed by rekey into a tuple of the new stage (set Rel to the side
// the joined intermediate plays, usually SideR, and Key to the next
// join attribute; Seq and U are reassigned downstream) and forwarded
// through pooled SendBatch envelopes — chaining never touches a
// per-tuple path. The other side of the new stage is fed externally
// via the returned Stream, giving multi-way plans such as
// R ⋈ S ⋈ T:
//
//	rs := p.Join(squall.Equi("r-s"), ...)
//	rst := rs.Join(squall.Equi("rs-t"), func(pr squall.Pair) squall.Tuple {
//		return squall.Tuple{Rel: squall.SideR, Key: pr.S.Aux}
//	})
//	// feed T tuples (SideS) into rst; R and S tuples into rs.
func (s *Stream) Join(pred Predicate, rekey func(Pair) Tuple, opts ...Option) *Stream {
	p := s.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.running || p.finished {
		panic("squall: Stream.Join after Run")
	}
	if rekey == nil {
		panic("squall: Stream.Join requires a non-nil rekey")
	}
	c := &Stream{p: p, pred: pred, opts: opts, parent: s, rekey: rekey}
	s.children = append(s.children, c)
	p.stages = append(p.stages, c)
	return c
}

// To terminates the stage with sink (results may still also feed
// chained stages); it returns s for fluent construction. A stage with
// no sink and no children counts its results internally.
func (s *Stream) To(sink Sink) *Stream {
	s.p.mu.Lock()
	defer s.p.mu.Unlock()
	if s.p.running || s.p.finished {
		panic("squall: Stream.To after Run")
	}
	s.sink = sink
	return s
}

// Send feeds one external tuple into the stage. It returns
// ErrNotRunning before Run, ErrFinished after Wait, and the
// cancellation cause after the pipeline's context is cancelled.
func (s *Stream) Send(t Tuple) error {
	e := s.eng()
	if e == nil {
		return ErrNotRunning
	}
	return e.Send(t)
}

// SendBatch feeds a run of external tuples through the stage's batched
// ingest front end; equivalent to sending each tuple in order.
func (s *Stream) SendBatch(ts []Tuple) error {
	e := s.eng()
	if e == nil {
		return ErrNotRunning
	}
	return e.SendBatch(ts)
}

// Engine returns the stage's engine (nil before Run) for uniform
// metric and mapping inspection.
func (s *Stream) Engine() Engine { return s.eng() }

// Metrics returns the stage's counters; nil before Run.
func (s *Stream) Metrics() *OperatorMetrics {
	e := s.eng()
	if e == nil {
		return nil
	}
	return e.Metrics()
}

// Stages returns the pipeline's stages in construction order
// (ancestors before descendants) for uniform metric inspection.
func (p *Pipeline) Stages() []*Stream {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*Stream(nil), p.stages...)
}

// Run builds every stage's engine (resolving pipeline defaults and
// per-stage options) and starts all tasks under ctx. If any stage's
// options are invalid, Run returns that error before starting any
// stage, and the pipeline stays not running. Cancelling ctx stops
// every task in every stage; in-flight and subsequent sends return the
// cancellation error, and Wait returns it.
func (p *Pipeline) Run(ctx context.Context) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case p.running:
		return errors.New("squall: Run called twice")
	case p.finished:
		return errors.New("squall: pipeline already finished")
	case len(p.stages) == 0:
		return errors.New("squall: pipeline has no stages")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Build engines children-first (stages is parent-before-child
	// order) so every bridge has a destination before its source stage
	// exists, and publish them only once every stage has built: a
	// failed build leaves Send returning ErrNotRunning, never feeding
	// an engine that will not start.
	built := make(map[*Stream]Engine, len(p.stages))
	for i := len(p.stages) - 1; i >= 0; i-- {
		s := p.stages[i]
		sc := newStageConfig(p.defaults, s.opts)
		s.bridges = s.bridges[:0]
		for _, c := range s.children {
			s.bridges = append(s.bridges, newBridge(c.rekey, built[c], c.bridgeSize))
		}
		eng, err := sc.build(s.pred, s.runSink())
		if err != nil {
			return fmt.Errorf("squall: stage %d: %w", i, err)
		}
		s.bridgeSize = sc.bridgeSize()
		built[s] = eng
	}
	for _, s := range p.stages {
		eng := built[s]
		s.engine.Store(&eng)
	}
	for _, s := range p.stages {
		s.eng().StartContext(ctx)
	}
	p.running = true
	return nil
}

// runSink composes the stage's result path: one fan-out over the
// bridges to its chained children plus its terminal sink. nil (count
// internally) when the stage has neither. A stage with bridges always
// resolves to the sharded hook — each emitting shard then owns a
// private bridge buffer, so chained forwarding needs no shared mutex;
// a non-sharded terminal sink joins the fan-out shard-blind (it is
// concurrency-safe by the Sink contract).
func (s *Stream) runSink() Sink {
	if len(s.bridges) == 0 {
		return s.sink
	}
	outs := make([]ShardedEmitBatch, 0, len(s.bridges)+1)
	for _, b := range s.bridges {
		outs = append(outs, b.emitShard)
	}
	if s.sink != nil {
		if sh, ok := s.sink.(interface{ sinkSharded() ShardedEmitBatch }); ok {
			outs = append(outs, sh.sinkSharded())
		} else {
			f := s.sink.sinkBatch()
			outs = append(outs, func(_ int, ps []Pair) { f(ps) })
		}
	}
	if len(outs) == 1 {
		return shardFunc(outs[0])
	}
	return shardFunc(func(shard int, ps []Pair) {
		for _, f := range outs {
			f(shard, ps)
		}
	})
}

// Wait drains and stops the pipeline: stages finish in topological
// order (ancestors first), each stage's remaining bridged output is
// flushed downstream before its child stages finish, and the first
// stage or forwarding error — a propagated context cancellation, a
// task panic, a storage failure — is returned. Wait is idempotent.
func (p *Pipeline) Wait() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.finished {
		return p.waitErr
	}
	if !p.running {
		return ErrNotRunning
	}
	var first error
	record := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	// stages is parent-before-child order: a stage's Finish returns
	// only after all its emits have run, so flushing its bridges then
	// finishing the children delivers every last intermediate tuple.
	for _, s := range p.stages {
		record(s.eng().Finish())
		for _, b := range s.bridges {
			record(b.flush())
		}
	}
	p.running, p.finished = false, true
	p.waitErr = first
	return first
}

// bridge forwards one stage's result pairs into a downstream engine:
// pairs are re-keyed into per-shard tuple buffers that ship through the
// destination's pooled SendBatch envelopes whenever they reach the
// destination's bridge size — chaining rides the batched ingest front
// end end to end, never a per-tuple path. Each emitting shard (joiner)
// owns a private buffer, so concurrent emits from different shards
// never contend: the only shared state is the copy-on-grow shard list
// (read via an atomic snapshot) and the first forwarding error.
type bridge struct {
	rekey func(Pair) Tuple
	dst   Engine
	size  int

	// mu guards shard-list growth and the error slot; the hot path
	// reads the list through the atomic pointer without it.
	mu     sync.Mutex
	shards atomic.Pointer[[]*bridgeShard]
	err    error
}

// bridgeShard is one shard's forwarding buffer, padded so adjacent
// shards' buffers never share a cache line.
type bridgeShard struct {
	mu  sync.Mutex
	buf []Tuple
	_   [64]byte
}

func newBridge(rekey func(Pair) Tuple, dst Engine, size int) *bridge {
	if size < 1 {
		size = 1
	}
	b := &bridge{rekey: rekey, dst: dst, size: size}
	b.shards.Store(new([]*bridgeShard))
	return b
}

// shard returns the buffer of one emitting shard, growing the list on
// first sight of a new shard id (elastic expansion mints them
// mid-stream). Growth copies the list and republishes — readers of the
// old snapshot still see valid shards.
func (b *bridge) shard(i int) *bridgeShard {
	if ss := *b.shards.Load(); i < len(ss) {
		return ss[i]
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	ss := *b.shards.Load()
	if i < len(ss) {
		return ss[i]
	}
	grown := make([]*bridgeShard, i+1)
	copy(grown, ss)
	for k := len(ss); k <= i; k++ {
		grown[k] = &bridgeShard{buf: make([]Tuple, 0, b.size)}
	}
	b.shards.Store(&grown)
	return grown[i]
}

// emitShard is the bridge's sharded emit hook on the source stage:
// same-shard calls are serialized by contract, so the per-shard mutex
// is uncontended unless flush() races a straggler.
func (b *bridge) emitShard(shard int, ps []Pair) {
	sh := b.shard(shard)
	sh.mu.Lock()
	for i := range ps {
		t := b.rekey(ps[i])
		// Sequence numbers and routing randomness are per-stage: the
		// destination assigns fresh ones at ingest.
		t.Seq, t.U = 0, 0
		sh.buf = append(sh.buf, t)
		if len(sh.buf) >= b.size {
			b.flushShard(sh)
		}
	}
	sh.mu.Unlock()
}

// flushShard ships one shard's buffer downstream; the caller holds the
// shard's mutex.
func (b *bridge) flushShard(sh *bridgeShard) {
	if len(sh.buf) == 0 {
		return
	}
	if err := b.dst.SendBatch(sh.buf); err != nil {
		b.mu.Lock()
		if b.err == nil {
			b.err = fmt.Errorf("squall: forwarding to chained stage: %w", err)
		}
		b.mu.Unlock()
	}
	sh.buf = sh.buf[:0]
}

// flush ships every shard's buffered remainder and reports the first
// forwarding error.
func (b *bridge) flush() error {
	for _, sh := range *b.shards.Load() {
		sh.mu.Lock()
		b.flushShard(sh)
		sh.mu.Unlock()
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}
