package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/dataflow"
	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Worker side of the distributed data plane: a worker process hosts a
// subset of the joiner ids behind a listener and speaks to exactly one
// coordinator over one link. The coordinator's hello carries the job
// description; from it the worker builds an Operator with the same
// controller table and mappings — but starts only its hosted joiners,
// no reshufflers and no controller. Hosted joiners see the identical
// topology API, so the whole epoch/migration protocol runs unchanged;
// only the edges are links instead of channels.

// WorkerConfig configures a worker process's local resources. The job
// itself (predicate, joiner ids, batch sizes, store budget) arrives in
// the coordinator's hello frame.
type WorkerConfig struct {
	// SpillDir is the worker-local spill directory for budgeted stores
	// ("" = OS temp), replacing the coordinator's path, which need not
	// exist on this machine.
	SpillDir string
}

// ServeWorker accepts one coordinator session on lis and runs its
// hosted joiners to completion. It returns nil after a clean stream
// (all hosted joiners drained, Done sent) and a *LinkError when the
// coordinator link fails mid-stream. Cancelling ctx aborts the accept
// and the session.
func ServeWorker(ctx context.Context, lis transport.Listener, wcfg WorkerConfig) error {
	return serveWorker(ctx, lis, wcfg, nil)
}

// serveWorker is ServeWorker handing the session's Operator, once
// built, to built when that is non-nil.
func serveWorker(ctx context.Context, lis transport.Listener, wcfg WorkerConfig, built func(*Operator)) error {
	accepted := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			_ = lis.Close()
		case <-accepted:
		}
	}()
	link, err := lis.Accept()
	close(accepted)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
	hf, err := link.Recv()
	if err != nil {
		_ = link.Close()
		return &LinkError{Worker: "coordinator", Err: err}
	}
	if hf.Kind != transport.KindHello {
		_ = link.Close()
		return &LinkError{Worker: "coordinator", Err: fmt.Errorf("first frame is %v, want hello", hf.Kind)}
	}
	h, err := decodeHello(hf.Payload)
	if err != nil {
		_ = link.Close()
		return &LinkError{Worker: "coordinator", Err: err}
	}
	return runWorkerSession(ctx, link, h, wcfg, built)
}

func runWorkerSession(ctx context.Context, link transport.Link, h helloMsg, wcfg WorkerConfig, built func(*Operator)) error {
	hosted := make([]bool, h.J)
	for _, id := range h.Ids {
		hosted[id] = true
	}
	cfg := Config{
		J:              h.J,
		Pred:           helloPred(h),
		Initial:        matrix.Mapping{N: h.InitialN, M: h.InitialM},
		NumReshufflers: h.NumRe,
		Seed:           h.Seed,
		BatchSize:      h.BatchSize,
		DataQueueCap:   h.DataQueueCap,
		Storage:        storage.Config{CapBytes: h.CapBytes, Dir: wcfg.SpillDir},
		hosted:         hosted,
	}
	op, err := NewOperator(cfg)
	if err != nil {
		_ = link.Close()
		return &LinkError{Worker: "coordinator", Err: fmt.Errorf("hello: %w", err)}
	}
	if built != nil {
		built(op)
	}
	peer := newRemotePeer("coordinator", link, op.stop, func(err error) { op.runner.Cancel(err) })
	peer.release = dataflow.CloseOnDone(op.stop, link)
	remote := make([]*remotePeer, h.J)
	for id := range remote {
		if !hosted[id] {
			remote[id] = peer
		}
	}
	op.topo.remote = remote

	// Hosted joiners emit through the uplink: per-joiner accounting
	// stays in this process's gauges, the pair run ships to the
	// coordinator's sink (which owns latency sampling and shard
	// identity). queuePairs serializes before returning, so the buffer
	// is immediately reusable — the EmitBatch no-retention contract.
	for _, w := range op.joiners {
		w := w
		w.emitBatch = func(ps []join.Pair) {
			if len(ps) == 0 {
				return
			}
			w.met.OutputPairs.Add(int64(len(ps)))
			peer.queuePairs(w.id, ps)
		}
	}

	// jdone closes when every hosted joiner has exited cleanly; it
	// sequences the final acks and the Done frame after all pairs, and
	// tells the reader a subsequent EOF is the coordinator hanging up.
	jdone := make(chan struct{})
	var liveJoiners atomic.Int64
	liveJoiners.Store(int64(len(op.joiners)))
	for _, w := range op.joiners {
		w := w
		op.runner.Go(fmt.Sprintf("joiner-%d", w.id), func() error {
			if err := w.run(); err != nil {
				return err
			}
			if liveJoiners.Add(-1) == 0 {
				close(jdone)
			}
			return nil
		})
	}

	// Ack forwarder: hosted joiners ack migrations into the local
	// controller channel (no controller runs here); forward each to the
	// coordinator, then — after the last joiner exits — drain stragglers
	// and queue Done, which the writer sends after everything queued
	// before it and then exits.
	op.runner.Go("uplink-acks", func() error {
		for {
			select {
			case id := <-op.ctl.ackCh:
				peer.queueAck(id)
			case <-jdone:
				for {
					select {
					case id := <-op.ctl.ackCh:
						peer.queueAck(id)
					default:
						peer.queueDone()
						return nil
					}
				}
			case <-op.stop:
				return nil
			}
		}
	})

	op.runner.Go("uplink-send", peer.writer)

	op.runner.Go("uplink-recv", func() error {
		var dests []int
		for {
			f, rerr := link.Recv()
			if rerr != nil {
				// After a clean finish the coordinator closing the link
				// is the expected end of session, not a failure.
				select {
				case <-jdone:
					return nil
				default:
				}
				select {
				case <-op.stop:
					return nil
				default:
				}
				return &LinkError{Worker: "coordinator", Err: rerr}
			}
			switch f.Kind {
			case transport.KindData:
				var derr error
				if dests, derr = op.fanOut(dests, f.Payload); derr != nil {
					return &LinkError{Worker: "coordinator", Err: derr}
				}
			case transport.KindMig:
				dest, m, derr := decodeMig(f.Payload)
				if derr != nil {
					return &LinkError{Worker: "coordinator", Err: derr}
				}
				if !op.hostsJoiner(dest) {
					return &LinkError{Worker: "coordinator", Err: fmt.Errorf("migration message for joiner %d, not hosted here", dest)}
				}
				op.topo.pushMig(dest, m)
			case transport.KindError:
				return &LinkError{Worker: "coordinator", Err: fmt.Errorf("peer reported: %s", f.Payload)}
			default:
				return &LinkError{Worker: "coordinator", Err: fmt.Errorf("unexpected %v frame", f.Kind)}
			}
		}
	})

	sessionDone := make(chan struct{})
	op.runner.WatchContext(ctx, sessionDone)
	err = op.runner.Wait()
	close(sessionDone)
	if err != nil {
		// Best-effort typed report before the link drops; the
		// coordinator surfaces it (or the cut stream) as a LinkError.
		_ = link.Send(transport.Frame{Kind: transport.KindError, Payload: []byte(err.Error())})
	}
	peer.release()
	_ = link.Close()
	for _, w := range op.joiners {
		_ = w.state.Close()
	}
	return err
}

// fanOut decodes a KindData payload and hands the one decoded envelope
// to every hosted joiner it names, by reference — the in-process
// broadcast, on the far side of the link: the references are set before
// the first push. A body naming two or more hosted joiners is first
// written, whole, into the open shared block of its slot (frameBlock)
// when the joiners store shared windows (sharesBlocks), and indexed in
// the slot's index; the envelope carries the window, so those joiners
// store views of one copy of its columns and read one index over them.
// A frame naming a joiner this process does not host, or sent by a
// reshuffler the job does not run, is rejected, its envelope released
// once. dests is the decode scratch, returned for
// reuse. Only the session's receive loop calls it.
func (op *Operator) fanOut(dests []int, payload []byte) ([]int, error) {
	dests, e, err := decodeData(dests, payload)
	if err != nil {
		return dests, err
	}
	for _, id := range dests {
		if !op.hostsJoiner(id) {
			e.release()
			return dests, fmt.Errorf("core: envelope for joiner %d, not hosted here", id)
		}
	}
	if e.hdr.from < 0 || e.hdr.from >= op.cfg.NumReshufflers {
		e.release()
		return dests, fmt.Errorf("core: envelope from reshuffler %d of %d", e.hdr.from, op.cfg.NumReshufflers)
	}
	if len(dests) >= 2 && len(e.tuples) > 0 && op.sharesBlocks() {
		if b := op.frameBlock(e, dests); b != nil {
			e.win = b.AppendRun(e.tuples)
		}
	}
	e.refs.Store(int32(len(dests)))
	for _, id := range dests {
		op.topo.pushData(id, e)
	}
	return dests, nil
}

// frameSlot names the reshuffler slot a data frame's body comes from,
// as a worker sees it: the sender, the body's side and the first joiner
// the frame names. Within one epoch a slot's frames name the same
// joiners, and two slots of one sender name different first joiners or
// carry different sides.
type frameSlot struct {
	from  int
	side  matrix.Side
	first int
}

// slotBlock is a worker's open shared block for one frameSlot, with the
// epoch and fan-out it was opened for.
type slotBlock struct {
	join.BlockWriter
	epoch   uint32
	sharers int
}

// frameBlock returns the shared-block writer of e's slot, reset — onto
// a fresh block, and a fresh slot index when Operator.indexesSlots
// says so — when the frame's destination count differs from the
// block's (a new slot's fan-out is 0), so a block's rows all go to one
// set of joiners.
// The first frame of a newer epoch drops every slot of the older ones:
// as on a reshuffler, a mapping change starts every slot on a new
// block, and an old slot's open block and index would otherwise stay
// pinned until the slot is seen again. A frame of an older epoch than
// the newest seen — a ∆ run of a migration in progress — gets no writer
// (nil) and its joiners copy it. There is one writer per slot of the
// current epoch, at most one per reshuffler, side and hosted joiner.
func (op *Operator) frameBlock(e *envelope, dests []int) *join.BlockWriter {
	switch epoch := e.hdr.epoch; {
	case epoch < op.frameEpoch:
		return nil
	case epoch > op.frameEpoch || op.frameBlocks == nil:
		op.frameMigrated = op.frameBlocks != nil
		op.frameEpoch = epoch
		op.frameBlocks = make(map[frameSlot]*slotBlock)
	}
	k := frameSlot{from: e.hdr.from, side: e.tuples[0].Rel, first: dests[0]}
	b := op.frameBlocks[k]
	if b == nil {
		b = &slotBlock{epoch: op.frameEpoch}
		op.frameBlocks[k] = b
	}
	if b.sharers != len(dests) {
		b.Reset(len(dests), op.indexesSlots(op.frameMigrated))
		b.sharers = len(dests)
	}
	return &b.BlockWriter
}
