package core

import (
	"fmt"
	"time"

	"repro/internal/dataflow"
	"repro/internal/join"
	"repro/internal/transport"
)

// Coordinator side of the distributed data plane. With Config.Workers
// set, this process hosts the reshufflers, the controller, and the
// user sink; joiners placed on a worker are reached through one
// transport link per worker. The routing split lives in two places:
// reshuffler.broadcast groups a flush's joiners by the peer hosting
// them and hands each peer one reference (sendData), and pushMig checks
// the remote table and either delivers in-process (the zero-regression
// local path) or through the link.
//
// Deadlock-freedom mirrors the in-process argument. Data-plane sends
// block in the TCP write — the network window is the backpressure the
// bounded inbox provides locally — while everything a joiner produces
// (migration messages, acks, result pairs) rides an unbounded
// out-queue drained by a dedicated writer goroutine, so a joiner never
// blocks on a peer and every reader always drains.

// LinkError is the typed failure of a worker link: the worker's
// address and the underlying transport error. It is what Finish (or
// Send) surfaces when a worker dies mid-stream — including mid-
// migration — instead of deadlocking against the lost peer.
type LinkError struct {
	// Worker is the peer's address ("coordinator" on the worker side).
	Worker string
	Err    error
}

func (e *LinkError) Error() string { return fmt.Sprintf("core: worker %s: %v", e.Worker, e.Err) }

func (e *LinkError) Unwrap() error { return e.Err }

// dialTimeout bounds a worker dial so a wrong address fails the start
// promptly instead of hanging in the OS connect timeout.
const dialTimeout = 10 * time.Second

// remotePeer is one worker link endpoint plus its outbound plane.
type remotePeer struct {
	name string
	link transport.Link
	// idx is the peer's index in Config.Workers (0 for a worker's one
	// uplink): the key reshuffler.broadcast groups destinations by.
	idx int

	// out is the non-blocking outbound plane: migration envelopes,
	// acks, pairs, and the final Done frame queue here and a writer
	// goroutine drains them to the link, preserving push order.
	out    *dataflow.Queue[transport.Frame]
	notify chan struct{}
	// stop is the operator runner's Done channel.
	stop <-chan struct{}
	// peerDone closes when the peer's Done frame arrives (coordinator
	// side), releasing the writer on clean shutdown — the runner's Done
	// never closes on a clean finish, so the writer needs its own exit.
	peerDone chan struct{}
	// fail cancels the runner with a LinkError; used by the blocking
	// data-plane send, which has no error return path of its own.
	fail func(error)
	// release detaches the CloseOnDone watcher on the clean path.
	release func()
}

func newRemotePeer(name string, link transport.Link, stop <-chan struct{}, cancel func(error)) *remotePeer {
	p := &remotePeer{
		name:     name,
		link:     link,
		out:      dataflow.NewQueue[transport.Frame](),
		notify:   make(chan struct{}, 1),
		stop:     stop,
		peerDone: make(chan struct{}),
	}
	p.fail = func(err error) { cancel(&LinkError{Worker: name, Err: err}) }
	return p
}

// sendData ships data-plane envelope e to the joiners in dests, all
// hosted by this peer, as one frame, blocking in the link write — the
// TCP window is the remote analogue of the bounded inbox's
// backpressure. It holds one reference for the whole peer, released as
// soon as the envelope is encoded, as a local joiner releases its own
// once processed.
func (p *remotePeer) sendData(dests []int, e *envelope) {
	buf := appendData(getWire(), dests, e)
	e.release()
	err := p.link.Send(transport.Frame{Kind: transport.KindData, Payload: buf})
	putWire(buf)
	if err != nil {
		p.fail(err)
	}
}

// queueFrame enqueues one outbound frame for the writer.
func (p *remotePeer) queueFrame(f transport.Frame) {
	p.out.Push(f)
	select {
	case p.notify <- struct{}{}:
	default:
	}
}

// queueMig enqueues a migration-plane message as one frame; never
// blocks, which is what keeps the pairwise state exchange deadlock-free
// across links.
func (p *remotePeer) queueMig(dest int, m message) {
	payload := appendMig(nil, dest, &m)
	p.queueFrame(transport.Frame{Kind: transport.KindMig, Payload: payload})
}

func (p *remotePeer) queueAck(id int) {
	p.queueFrame(transport.Frame{Kind: transport.KindAck, Payload: appendAck(nil, id)})
}

func (p *remotePeer) queuePairs(id int, ps []join.Pair) {
	p.queueFrame(transport.Frame{Kind: transport.KindPairs, Payload: appendPairs(nil, id, ps)})
}

func (p *remotePeer) queueDone() {
	p.queueFrame(transport.Frame{Kind: transport.KindDone})
}

// writeBatchBytes caps the payload bytes the writer coalesces into one
// link write; a single larger frame still goes out alone.
const writeBatchBytes = 256 << 10

// writer drains the out-queue into the link, everything queued at a
// wake-up in one write (SendFrames) up to writeBatchBytes. It exits
// after sending a Done frame (worker side), once the peer's own Done
// has arrived and the queue is drained (coordinator side), or on stop.
func (p *remotePeer) writer() error {
	var batch []transport.Frame
	for {
		for {
			var done bool
			batch, done = p.drain(batch[:0])
			if len(batch) == 0 {
				break
			}
			err := p.link.SendFrames(batch)
			clear(batch) // the payloads are garbage once written
			if err != nil {
				select {
				case <-p.stop:
					return nil // unwinding; the cancel cause already stands
				default:
				}
				return &LinkError{Worker: p.name, Err: err}
			}
			if done {
				return nil
			}
		}
		select {
		case <-p.notify:
		case <-p.stop:
			return nil
		case <-p.peerDone:
			for {
				batch, _ = p.drain(batch[:0])
				if len(batch) == 0 {
					return nil
				}
				_ = p.link.SendFrames(batch)
				clear(batch)
			}
		}
	}
}

// drain pops queued frames onto batch until the queue is empty, the
// payloads reach writeBatchBytes, or a Done frame ends the stream.
func (p *remotePeer) drain(batch []transport.Frame) ([]transport.Frame, bool) {
	size := 0
	for size < writeBatchBytes {
		f, ok := p.out.TryPop()
		if !ok {
			break
		}
		batch = append(batch, f)
		size += len(f.Payload)
		if f.Kind == transport.KindDone {
			return batch, true
		}
	}
	return batch, false
}

// placementFor computes the joiner-id -> worker-index table (-1 =
// this process): Config.Placement verbatim, or the default contiguous
// split where worker w hosts ids [w*J/W, (w+1)*J/W).
func placementFor(cfg *Config) []int {
	place := make([]int, cfg.J)
	if cfg.Placement != nil {
		copy(place, cfg.Placement)
		return place
	}
	for id := range place {
		place[id] = id * len(cfg.Workers) / cfg.J
	}
	return place
}

// connectWorkers dials every configured worker, sends each its hello,
// installs the remote routing table, and launches the per-peer
// receiver and writer tasks. Called synchronously from StartContext
// before any task launches; on error the caller cancels the runner,
// which also closes any links already watched.
func (op *Operator) connectWorkers() error {
	cancel := func(err error) { op.runner.Cancel(err) }
	peers := make([]*remotePeer, len(op.cfg.Workers))
	for wi, addr := range op.cfg.Workers {
		var ids []int
		for id, w := range op.place {
			if w == wi {
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 {
			return fmt.Errorf("core: worker %s hosts no joiners under the placement", addr)
		}
		link, err := transport.DialTimeout(addr, dialTimeout)
		if err != nil {
			return &LinkError{Worker: addr, Err: err}
		}
		h := helloMsg{
			J:            op.cfg.J,
			NumRe:        op.cfg.NumReshufflers,
			Ids:          ids,
			PredKind:     uint8(op.cfg.Pred.Kind),
			PredWidth:    op.cfg.Pred.Width,
			PredName:     op.cfg.Pred.Name,
			Seed:         op.cfg.Seed,
			InitialN:     op.cfg.Initial.N,
			InitialM:     op.cfg.Initial.M,
			BatchSize:    op.cfg.BatchSize,
			DataQueueCap: op.cfg.DataQueueCap,
			CapBytes:     op.cfg.Storage.CapBytes,
		}
		if err := link.Send(transport.Frame{Kind: transport.KindHello, Payload: encodeHello(h)}); err != nil {
			_ = link.Close()
			return &LinkError{Worker: addr, Err: err}
		}
		p := newRemotePeer(addr, link, op.stop, cancel)
		p.idx = wi
		p.release = dataflow.CloseOnDone(op.stop, link)
		peers[wi] = p
	}
	op.peers = peers
	remote := make([]*remotePeer, op.cfg.J)
	for id, w := range op.place {
		if w >= 0 {
			remote[id] = peers[w]
		}
	}
	op.topo.remote = remote
	for _, p := range op.peers {
		p := p
		op.runner.Go("link-recv-"+p.name, func() error { return op.peerRecv(p) })
		op.runner.Go("link-send-"+p.name, p.writer)
	}
	return nil
}

// peerRecv is the coordinator's per-worker receiver: acks feed the
// controller, pairs feed a shadow sink for each joiner the worker
// hosts (per-joiner accounting and shard identity preserved),
// migration messages route to their destination — decoded locally or
// forwarded as-is to the hosting peer — and Done retires the link. Any
// receive or decode failure surfaces as a LinkError, cancelling the
// operator: a worker killed mid-migration lands here as a cut stream.
func (op *Operator) peerRecv(p *remotePeer) error {
	emits := make(map[int]join.EmitBatch)
	for id, w := range op.place {
		if w >= 0 && op.peers[w] == p {
			shadow := &joiner{id: id, met: op.met.JoinerStats(id)}
			emits[id] = op.emitBatchFor(shadow)
		}
	}
	var pairScratch []join.Pair
	for {
		f, err := p.link.Recv()
		if err != nil {
			select {
			case <-p.stop:
				return nil
			default:
			}
			return &LinkError{Worker: p.name, Err: err}
		}
		switch f.Kind {
		case transport.KindAck:
			id, derr := decodeAck(f.Payload)
			if derr != nil {
				return &LinkError{Worker: p.name, Err: derr}
			}
			select {
			case op.ctl.ackCh <- id:
			case <-p.stop:
				return nil
			}
		case transport.KindPairs:
			id, ps, derr := decodePairsInto(pairScratch, f.Payload)
			if derr != nil {
				return &LinkError{Worker: p.name, Err: derr}
			}
			sink := emits[id]
			if sink == nil {
				return &LinkError{Worker: p.name, Err: fmt.Errorf("core: pairs for joiner %d, not hosted there", id)}
			}
			sink(ps)
			pairScratch = ps
		case transport.KindMig:
			dest, derr := frameDest(f.Payload)
			if derr != nil {
				return &LinkError{Worker: p.name, Err: derr}
			}
			if dest < 0 || dest >= op.cfg.J {
				return &LinkError{Worker: p.name, Err: fmt.Errorf("core: migration envelope for joiner %d (J=%d)", dest, op.cfg.J)}
			}
			if op.topo.isRemote(dest) {
				// Worker→worker exchange: relay the frame untouched.
				op.topo.remote[dest].queueFrame(f)
				continue
			}
			_, m, derr := decodeMig(f.Payload)
			if derr != nil {
				return &LinkError{Worker: p.name, Err: derr}
			}
			op.topo.pushMig(dest, m)
		case transport.KindDone:
			close(p.peerDone)
			return nil
		case transport.KindError:
			return &LinkError{Worker: p.name, Err: fmt.Errorf("peer reported: %s", f.Payload)}
		default:
			return &LinkError{Worker: p.name, Err: fmt.Errorf("unexpected %v frame", f.Kind)}
		}
	}
}
