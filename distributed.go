package squall

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/transport"
)

// Distributed mode: the network-transparent data plane. A stage built
// with WithWorkers becomes the coordinator — it keeps the reshufflers,
// the controller, and the sink in this process and places joiner tasks
// on worker processes (cmd/joinworker), reached over TCP links with
// CRC'd, versioned envelope framing. State migration ships serialized
// arena blocks over the same links, so a remote joiner adopts migrated
// state whole instead of re-inserting tuple by tuple. The local path
// is untouched: without WithWorkers no link code runs.

// LinkError is the typed failure of a worker link: the worker address
// and the underlying transport error. A worker killed mid-stream (or
// mid-migration) surfaces from Finish/Wait as a *LinkError instead of
// a deadlock; unwrap with errors.As.
type LinkError = core.LinkError

// WithWorkers places the stage's joiner tasks on worker processes at
// the given addresses (see cmd/joinworker), turning this process into
// the coordinator. Joiners spread over the workers in contiguous
// blocks. Distributed stages run the grid operator (NewSHJ rejects
// WithWorkers) on at most 1024 joiners, require a serializable
// predicate (equi or band, no residual closure), and exclude
// WithBackend checkpointing and WithElastic expansion.
func WithWorkers(addrs ...string) Option {
	return func(sc *stageConfig) { sc.cfg.Workers = append([]string(nil), addrs...) }
}

// WithPlacement pins each joiner id to a worker index from
// WithWorkers, with -1 keeping that joiner in the coordinator process.
// It takes one entry per joiner that runs: for WithJoiners(6), the
// grid's 4.
// Without it, joiners spread in contiguous blocks with none local.
func WithPlacement(place ...int) Option {
	return func(sc *stageConfig) { sc.cfg.Placement = append([]int(nil), place...) }
}

// WithListen marks this process as a worker listening on addr (e.g.
// "127.0.0.1:9701"); consumed by ServeWorker, ignored by stage
// builders.
func WithListen(addr string) Option {
	return func(sc *stageConfig) { sc.listen = addr }
}

// WorkerServer is a bound worker listener; Serve runs one coordinator
// session over it.
type WorkerServer struct {
	lis transport.Listener
	cfg core.WorkerConfig
}

// NewWorkerServer binds a worker listener on addr (":0" picks a free
// port — read it back from Addr). Options supply worker-local
// resources: WithStorage's Dir becomes the local spill directory (the
// memory budget itself arrives from the coordinator).
func NewWorkerServer(addr string, opts ...Option) (*WorkerServer, error) {
	sc := newStageConfig(nil, opts)
	lis, err := transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &WorkerServer{lis: lis, cfg: core.WorkerConfig{SpillDir: sc.cfg.Storage.Dir}}, nil
}

// Addr returns the bound listen address.
func (ws *WorkerServer) Addr() string { return ws.lis.Addr() }

// Serve accepts one coordinator session and runs its hosted joiners to
// completion: nil after a clean stream, a *LinkError if the
// coordinator link fails mid-stream, ctx.Err() if cancelled.
func (ws *WorkerServer) Serve(ctx context.Context) error {
	return core.ServeWorker(ctx, ws.lis, ws.cfg)
}

// Close closes the listener.
func (ws *WorkerServer) Close() error { return ws.lis.Close() }

// ServeWorker is the one-call worker entry point: bind the WithListen
// address, serve one coordinator session, close the listener.
func ServeWorker(ctx context.Context, opts ...Option) error {
	sc := newStageConfig(nil, opts)
	if sc.listen == "" {
		return errors.New("squall: ServeWorker requires WithListen")
	}
	ws, err := NewWorkerServer(sc.listen, opts...)
	if err != nil {
		return fmt.Errorf("squall: worker listen: %w", err)
	}
	defer ws.Close() // drop: Serve's result is returned; this only releases the listener
	return ws.Serve(ctx)
}
