package core

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"

	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/storage"
)

// Barrier checkpointing (§4.3.3's FTOpt-style upstream backup, wired
// onto the live operator). The protocol composes with the epoch
// machinery instead of stopping it:
//
//  1. The controller queues checkpoint requests (manual via
//     Operator.Checkpoint, automatic via Config.CheckpointEvery) and
//     issues one only while no migration is in flight — between chain
//     steps, never during one — so every joiner is at a stable epoch
//     with mig == nil when its barrier completes.
//  2. Issue = a begin event to the checkpoint coordinator, then a
//     ctrlCkpt broadcast. Each reshuffler flushes its pending batches,
//     emits a kCkpt marker to every joiner on the same FIFO links that
//     carry epoch signals, and reports its consumed-item count (the
//     replay cut) to the coordinator.
//  3. Each joiner aligns Chandy-Lamport style: envelopes from links
//     whose marker already arrived are held aside; once all numRe
//     markers are in, the joiner has seen exactly the pre-barrier
//     prefix of every link. It captures its store (Store.Capture):
//     the arena blocks below each index's immutable prefix by
//     reference, a copy of each open tail block, and only the parts
//     that cannot be held by reference — an ordered index, spilled
//     records — encoded. That is O(blocks), not O(bytes): the joiner
//     hands the capture to the coordinator and drains the held
//     envelopes, and other joiners never stall. Holding blocks by
//     reference is safe because blocks below the prefix change only
//     through Retain, which runs only in migrations, and the
//     controller starts no migration or expansion while a checkpoint
//     is in flight — until the coordinator reports its commit.
//  4. The coordinator assembles the operator snapshot (mapping, table,
//     cuts, per-joiner captures), encodes it into one
//     exact-size blob — every joiner's region written in place, in
//     parallel — commits it through the backend's atomic-rename path,
//     and only then trims the replay log up to the cuts. A crash
//     anywhere leaves either the previous checkpoint or the new one —
//     never a torn mix — and the log always covers everything after
//     the newest durable cut. Each checkpoint encodes a fresh blob: a
//     retrying backend may still be reading an abandoned attempt's.
//     After the commit it rules on the next snapshot: a delta, unless
//     the committed chain's blobs add up to more than two full
//     snapshots as measured at this barrier (every capture knows its
//     full size in O(blocks)) — more dead bytes than live ones. Dead
//     bytes are superseded tail-block copies, ordered indexes
//     re-encoded in every link and blocks a migration's Retain
//     rebuilt. A full snapshot of F bytes is then paid for by at least
//     F dead bytes already written, the amortization Lemma 4.4 makes
//     for migrations: checkpoint bytes stay within twice the delta
//     bytes, and a restore reads at most 2F plus one link.
//
// Restore rebuilds joiner state through the same MergeFrom/adopt()
// whole-block install path migration finalization uses, then replays
// the log. Routing is deterministic in (seed, seq) — see uMix — so a
// replayed tuple that was already inside the cut lands on the joiners
// that restored it and is dropped by their sequence-number filter.

// ErrNoBackend is returned by Checkpoint when the operator was built
// without a storage backend.
var ErrNoBackend = errors.New("core: checkpointing requires a storage backend (Config.Backend)")

// uMix derives a tuple's routing value from the operator seed and the
// tuple's ingestion sequence number (splitmix64 finalizer): the same
// tuple routes to the same partition on replay, no matter which
// reshuffler handles it, which is what lets restored joiners filter
// replayed duplicates by sequence number alone.
func uMix(seed, seq uint64) uint64 {
	z := seq + seed*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// ReplayLog is the upstream backup on the ingest edge (§4.3.3): one
// append-only ring per reshuffler source ring, holding every accepted
// input item until a checkpoint covering it commits durably. Appends
// happen under the same per-ring mutex as the ring send, so log order
// equals consumption order and a reshuffler's consumed-count at its
// barrier is exactly a log prefix length.
//
// A ring is a list of segments, so the feeder's append never copies
// what is logged: when the newest segment is full the next one is
// allocated at twice its capacity, from replaySegMin up to
// replaySegMax. Growth is geometric because a segment allocation is a
// memclr on the feeder's path — fixed small segments allocate often
// enough to show in the send latency tail. Trim drops whole leading
// segments and zeroes the slots it cuts from a partly covered one, and
// the stop path's undo zeroes what it takes back, so the log pins no
// payload it no longer holds. Len is O(1) per ring.
type ReplayLog struct {
	rings []replayRing
}

// Replay-log segment capacities, in items (72 bytes each): 36 KB for
// the first segment of a ring, 4.5 MB at the cap.
const (
	replaySegMin = 512
	replaySegMax = 1 << 16
)

type replayRing struct {
	mu sync.Mutex
	// base counts items already trimmed: the ring's consumed-cut of the
	// newest durable checkpoint.
	base int64
	// segs holds the retained items in order; each segment's length is
	// its fill, and only the last one takes appends. head is how many
	// leading items of segs[0] Trim has cut (and zeroed); n counts the
	// retained items; next is the capacity of the next segment.
	segs [][]join.Tuple
	head int
	n    int
	next int
}

func newReplayLog(numRings int) *ReplayLog {
	return &ReplayLog{rings: make([]replayRing, numRings)}
}

// append logs items after the ring's retained ones, in order. The
// caller holds rg.mu.
func (rg *replayRing) append(items []join.Tuple) {
	rg.n += len(items)
	for len(items) > 0 {
		last := len(rg.segs) - 1
		if last < 0 || len(rg.segs[last]) == cap(rg.segs[last]) {
			rg.next = min(max(2*rg.next, replaySegMin), replaySegMax)
			rg.segs = append(rg.segs, make([]join.Tuple, 0, rg.next))
			last++
		}
		seg := rg.segs[last]
		k := copy(seg[len(seg):cap(seg)], items)
		rg.segs[last] = seg[:len(seg)+k]
		items = items[k:]
	}
}

// truncate takes back the newest items until n remain, zeroing their
// slots and dropping segments it empties: the stop path's undo of an
// append whose send did not happen. The caller holds rg.mu.
func (rg *replayRing) truncate(n int) {
	for drop := rg.n - n; drop > 0; {
		last := len(rg.segs) - 1
		seg := rg.segs[last]
		lo := 0
		if last == 0 {
			lo = rg.head
		}
		k := min(drop, len(seg)-lo)
		clear(seg[len(seg)-k:])
		rg.segs[last] = seg[:len(seg)-k]
		drop -= k
		if len(seg)-k == lo {
			rg.segs[last] = nil
			rg.segs = rg.segs[:last]
			if last == 0 {
				rg.head = 0
			}
		}
	}
	rg.n = n
}

// cut drops the oldest drop items (all of them when drop exceeds the
// ring): whole leading segments are released, and the slots cut from a
// partly covered one are zeroed. The caller holds rg.mu.
func (rg *replayRing) cut(drop int64) {
	k := 0 // leading segments cut whole
	for ; k < len(rg.segs) && drop > 0; k++ {
		seg := rg.segs[k]
		avail := len(seg) - rg.head
		if drop < int64(avail) {
			clear(seg[rg.head : rg.head+int(drop)])
			rg.head += int(drop)
			rg.n -= int(drop)
			break
		}
		rg.n -= avail // the segment drops whole: nothing reaches it
		drop -= int64(avail)
		rg.head = 0
	}
	if k > 0 {
		m := copy(rg.segs, rg.segs[k:])
		clear(rg.segs[m:])
		rg.segs = rg.segs[:m]
	}
}

// each calls fn on every retained item in log order. The caller holds
// rg.mu.
func (rg *replayRing) each(fn func(*join.Tuple)) {
	for i, seg := range rg.segs {
		if i == 0 {
			seg = seg[rg.head:]
		}
		for j := range seg {
			fn(&seg[j])
		}
	}
}

// Trim drops, per ring, the items a durable checkpoint covers: the
// first cuts[d]-base items of ring d. Called by the coordinator only
// after the backend committed the snapshot.
func (l *ReplayLog) Trim(cuts []int64) {
	for d := range l.rings {
		if d >= len(cuts) {
			break
		}
		rg := &l.rings[d]
		rg.mu.Lock()
		if drop := cuts[d] - rg.base; drop > 0 {
			rg.cut(drop)
			rg.base = cuts[d]
		}
		rg.mu.Unlock()
	}
}

// Len returns the total number of items currently retained.
func (l *ReplayLog) Len() int {
	n := 0
	for d := range l.rings {
		rg := &l.rings[d]
		rg.mu.Lock()
		n += rg.n
		rg.mu.Unlock()
	}
	return n
}

// snapshotRing copies one ring's retained items; callers replay from
// the copy so the log's own locks stay short.
func (l *ReplayLog) snapshotRing(d int) []join.Tuple {
	rg := &l.rings[d]
	rg.mu.Lock()
	items := make([]join.Tuple, 0, rg.n)
	rg.each(func(t *join.Tuple) { items = append(items, *t) })
	rg.mu.Unlock()
	return items
}

// maxSeq returns the largest ingestion sequence number retained.
func (l *ReplayLog) maxSeq() uint64 {
	var max uint64
	for d := range l.rings {
		rg := &l.rings[d]
		rg.mu.Lock()
		rg.each(func(t *join.Tuple) {
			if s := t.Seq; s > max {
				max = s
			}
		})
		rg.mu.Unlock()
	}
	return max
}

// Checkpoint-coordinator event kinds.
const (
	evBegin = iota // controller: a checkpoint was issued
	evCut          // reshuffler: consumed-count at its barrier
	evSnap         // joiner: state blob at its barrier
)

// ckptEvent is one message on the coordinator's assembly channel.
type ckptEvent struct {
	kind    int
	ckpt    uint64
	idx     int   // reshuffler id (evCut) or joiner id (evSnap)
	cut     int64 // evCut
	emitted int64 // evSnap: OutputPairs at the barrier
	capture *storage.StoreCapture
	// evSnap: the watermark a later delta may be taken against once
	// this payload commits, and the joiner's cell to publish it into.
	// The cell pointer rides the event so the coordinator never reads
	// op.joiners (which spawnChildren mutates concurrently).
	wm     storage.StoreWatermark
	wmCell *atomic.Pointer[storage.StoreWatermark]
	// evBegin fields:
	epoch   uint32
	numRe   int
	mapping matrix.Mapping
	table   []int
	full    bool // evBegin: force a full (chain-resetting) snapshot
}

// ckptResult reports one checkpoint's outcome back to the controller,
// with the coordinator's ruling on the next one (nextCkptFull).
type ckptResult struct {
	id       uint64
	err      error
	nextFull bool
}

// ckptCommit is one committed checkpoint's byte figures: the link's
// blob, a full snapshot's size at its barrier, and the committed
// chain's bytes with the link included.
type ckptCommit struct {
	id                uint64
	blob, full, chain int64
}

// ckptBuild is the coordinator's in-progress assembly of one
// checkpoint.
type ckptBuild struct {
	id       uint64
	epoch    uint32
	numRe    int
	mapping  matrix.Mapping
	table    []int
	cuts     []int64
	cutsGot  int
	joiners  []storage.JoinerSnapshot
	wms      []storage.StoreWatermark
	wmCells  []*atomic.Pointer[storage.StoreWatermark]
	snapsGot int
	begun    bool
	full     bool
}

// ckptCut remembers one committed checkpoint's replay cuts. The
// coordinator keeps the newest CheckpointKeep of them (mirroring the
// backend's keep-K generation retention) and trims the replay log only
// to the OLDEST retained one, so a fallback restore to any retained
// generation still finds the log covering everything past its cut.
type ckptCut struct {
	id   uint64
	cuts []int64
}

// runCkptCoordinator assembles barrier contributions into snapshots
// and commits them. It is a plain goroutine, not a runner task (it
// must outlive runner.Wait so Finish can stop it last), so it recovers
// its own panics — in particular the mid-snapshot crash faultpoint
// inside FileBackend.Write — and converts them into operator
// cancellation, exactly like a task death.
func (op *Operator) runCkptCoordinator() {
	defer op.ckptWG.Done()
	defer func() {
		if p := recover(); p != nil {
			op.runner.Cancel(fmt.Errorf("core: checkpoint coordinator: %v", p))
		}
	}()
	var cur ckptBuild
	for {
		select {
		case ev := <-op.ckptC:
			op.ckptApply(&cur, ev)
		case <-op.ckptQuit:
			return
		case <-op.stop:
			return
		}
	}
}

// ckptApply folds one event into the assembly, committing when the
// last contribution lands.
func (op *Operator) ckptApply(cur *ckptBuild, ev ckptEvent) {
	switch ev.kind {
	case evBegin:
		*cur = ckptBuild{
			id:      ev.ckpt,
			epoch:   ev.epoch,
			numRe:   ev.numRe,
			mapping: ev.mapping,
			table:   ev.table,
			cuts:    make([]int64, ev.numRe),
			joiners: make([]storage.JoinerSnapshot, len(ev.table)),
			wms:     make([]storage.StoreWatermark, len(ev.table)),
			wmCells: make([]*atomic.Pointer[storage.StoreWatermark], len(ev.table)),
			begun:   true,
			full:    ev.full,
		}
		return
	case evCut:
		if !cur.begun || ev.ckpt != cur.id || ev.idx >= len(cur.cuts) {
			return
		}
		cur.cuts[ev.idx] = ev.cut
		cur.cutsGot++
	case evSnap:
		if !cur.begun || ev.ckpt != cur.id || ev.idx >= len(cur.joiners) {
			return
		}
		cur.joiners[ev.idx] = storage.JoinerSnapshot{ID: ev.idx, Emitted: ev.emitted, Capture: ev.capture}
		cur.wms[ev.idx] = ev.wm
		cur.wmCells[ev.idx] = ev.wmCell
		cur.snapsGot++
	}
	if cur.begun && cur.cutsGot == cur.numRe && cur.snapsGot == len(cur.table) {
		err := op.commitCkpt(cur)
		if err != nil {
			// Graceful degradation: the snapshot is lost but nothing
			// durable moved — watermarks stay unpublished (the next delta
			// re-covers the same suffix) and the replay log stays
			// untrimmed, so the previous checkpoint remains fully
			// recoverable. Degrade keeps joining and retries at the next
			// boundary; FailStop surfaces the error through Wait.
			op.met.CheckpointFailures.Add(1)
			if op.cfg.CheckpointPolicy == CkptFailStop {
				op.runner.Cancel(err)
			} else {
				log.Printf("core: checkpoint %d failed (degrading, replay log kept): %v", cur.id, err)
			}
		}
		// Drop the captures before the controller may start a migration:
		// they pin the joiners' blocks and tail copies.
		id := cur.id
		*cur = ckptBuild{}
		select {
		case op.ctl.ckptDoneCh <- ckptResult{id: id, err: err, nextFull: op.nextCkptFull()}:
		case <-op.ckptQuit:
		case <-op.stop:
		}
	}
}

// commitCkpt encodes and durably writes one assembled checkpoint, then
// trims the replay log up to the oldest *retained* generation's cuts.
// Trim strictly after the write: a crash between them replays a
// covered suffix, which the restored joiners' sequence filters drop —
// the reverse order would lose input. On a delta checkpoint the
// snapshot records its base (the previous committed id) and the write
// declares the whole chain as dependencies, so the backend's manifest
// pins every blob a restore of this generation needs.
func (op *Operator) commitCkpt(cur *ckptBuild) error {
	var baseID uint64
	var deps []uint64
	if !cur.full && len(op.ckptChain) > 0 {
		baseID = op.ckptChain[len(op.ckptChain)-1]
		deps = append([]uint64(nil), op.ckptChain...)
	}
	snap := storage.OperatorSnapshot{
		ID:        cur.id,
		BaseID:    baseID,
		Epoch:     cur.epoch,
		Mapping:   cur.mapping,
		Table:     cur.table,
		NumRe:     cur.numRe,
		Seq:       op.seq.Load(),
		RouteSeed: op.cfg.Seed,
		Cuts:      cur.cuts,
		Joiners:   cur.joiners,
	}
	blob := snap.Encode()
	if err := op.cfg.Backend.Write(cur.id, blob, deps); err != nil {
		return fmt.Errorf("core: commit checkpoint %d: %w", cur.id, err)
	}
	// Committed: publish each joiner's watermark so the next barrier
	// can delta against this (now durable) payload.
	for i, cell := range cur.wmCells {
		if cell != nil {
			wm := cur.wms[i]
			cell.Store(&wm)
		}
	}
	if deps == nil {
		op.ckptChain = op.ckptChain[:0]
		op.ckptChainBytes = 0
	}
	op.ckptChain = append(op.ckptChain, cur.id)
	op.ckptChainBytes += int64(len(blob))
	op.ckptFullBytes = int64(snap.FullSize())
	if op.ckptCommitted != nil {
		op.ckptCommitted(ckptCommit{id: cur.id, blob: int64(len(blob)), full: op.ckptFullBytes, chain: op.ckptChainBytes})
	}
	op.cutHist = append(op.cutHist, ckptCut{id: cur.id, cuts: append([]int64(nil), cur.cuts...)})
	if keep := op.cfg.CheckpointKeep; len(op.cutHist) > keep {
		op.cutHist = append(op.cutHist[:0], op.cutHist[len(op.cutHist)-keep:]...)
	}
	op.replay.Trim(op.cutHist[0].cuts)
	op.met.Checkpoints.Add(1)
	return nil
}

// nextCkptFull is the compaction rule (protocol step 4): the next
// snapshot is full when nothing is committed yet, or when the committed
// chain holds more bytes than two full snapshots of the newest commit's
// state.
func (op *Operator) nextCkptFull() bool {
	return op.ckptAlwaysFull || len(op.ckptChain) == 0 || op.ckptChainBytes > 2*op.ckptFullBytes
}

// Checkpoint requests a barrier checkpoint and blocks until it commits
// durably (or fails). Concurrent requests coalesce: requests queued
// while one checkpoint is in flight are answered by the next one,
// whose barrier covers everything sent before they were made. Returns
// ErrNoBackend when the operator has no backend, ErrFinished once the
// input is closed, and the stop cause if the operator dies first.
func (op *Operator) Checkpoint() error {
	if op.replay == nil {
		return ErrNoBackend
	}
	reply := make(chan error, 1)
	select {
	case op.ctl.ckptReqCh <- reply:
	case <-op.stop:
		return op.runner.Err()
	case <-op.finishedCh:
		return ErrFinished
	}
	select {
	case err := <-reply:
		return err
	case <-op.stop:
		return op.runner.Err()
	case <-op.finishedCh:
		return ErrFinished
	}
}

// ReplayLog exposes the operator's upstream backup. After a crash the
// caller hands it to the restored operator's ReplayFrom; it is nil
// when the operator has no backend.
func (op *Operator) ReplayLog() *ReplayLog {
	return op.replay
}

// ReplayFrom re-injects a crashed operator's retained log into this
// (restored, started) operator: first the global sequence cursor is
// bumped past every logged sequence number so fresh Sends can never
// collide with a replayed one, then the items re-enter through the
// normal ingest edge with their original sequence numbers. Call it
// after Start and before any new Send.
// Replayed items that were already inside the restored checkpoint's
// cut route to the joiners that restored them (deterministic routing)
// and are dropped by their sequence filters, so replaying a
// partially-covered log is always safe.
func (op *Operator) ReplayFrom(log *ReplayLog) error {
	if log == nil {
		return nil
	}
	for {
		cur := op.seq.Load()
		max := log.maxSeq()
		if cur >= max || op.seq.CompareAndSwap(cur, max) {
			break
		}
	}
	const replayChunk = 256
	for d := range log.rings {
		items := log.snapshotRing(d)
		for len(items) > 0 {
			chunk := items[:min(len(items), replayChunk)]
			if err := op.sendItems(len(chunk), func(i int) join.Tuple { return chunk[i] }); err != nil {
				return err
			}
			items = items[len(chunk):]
		}
	}
	return nil
}

// RestoreOperator rebuilds an operator from a decoded checkpoint. The
// snapshot overrides cfg's joiner count, initial mapping, and
// reshuffler count; every joiner's store is installed through the
// whole-block adoption path and seeded with the sequence filter that
// drops replayed duplicates. Epoch numbering restarts at zero (epochs
// are relative), and the adaptive controller re-accumulates statistics
// from the restored stream. Call Start, then ReplayFrom, then resume
// feeding.
func RestoreOperator(cfg Config, snap *storage.OperatorSnapshot) (*Operator, error) {
	if cfg.Backend == nil {
		return nil, ErrNoBackend
	}
	cfg.J = len(snap.Table)
	cfg.Initial = snap.Mapping
	cfg.NumReshufflers = snap.NumRe
	// The snapshot's routing seed wins over cfg's: replayed duplicates
	// are only droppable because they re-route to the joiners that
	// restored them, which requires the original (seed, seq) mix.
	cfg.Seed = snap.RouteSeed
	op, err := NewOperator(cfg)
	if err != nil {
		return nil, err
	}
	op.ctl.table = append([]int(nil), snap.Table...)
	op.ctl.ckptNext = snap.ID + 1
	// The generation restored from stays retained in the backend, so the
	// log must stay replayable from it until it ages out. Its boundary in
	// this operator's numbering is zero on every ring: replay re-sends
	// the whole retained log, and the seq filter drops what it covers.
	op.cutHist = []ckptCut{{id: snap.ID, cuts: make([]int64, snap.NumRe)}}
	for idx, id := range snap.Table {
		if id < 0 || id >= len(op.joiners) {
			return nil, fmt.Errorf("core: restore: checkpoint table cell %d names joiner %d of %d: %w",
				idx, id, len(op.joiners), storage.ErrCorrupt)
		}
		w := op.joiners[id]
		w.cell = snap.Mapping.CellOf(idx)
		w.table = append([]int(nil), snap.Table...)
	}
	for i := range snap.Joiners {
		js := &snap.Joiners[i]
		if js.ID < 0 || js.ID >= len(op.joiners) {
			return nil, fmt.Errorf("core: restore: checkpoint joiner record %d out of range: %w",
				js.ID, storage.ErrCorrupt)
		}
		w := op.joiners[js.ID]
		chain := js.StateChain
		if chain == nil {
			chain = [][]byte{js.State}
		}
		if err := w.state.RestoreSnapshotChain(chain); err != nil {
			return nil, fmt.Errorf("core: restore joiner %d: %w", js.ID, err)
		}
		if seqs := w.state.SnapshotSeqs(nil); len(seqs) > 0 {
			w.dedup = make(map[uint64]struct{}, len(seqs))
			for _, s := range seqs {
				w.dedup[s] = struct{}{}
				if s > w.dedupMax {
					w.dedupMax = s
				}
			}
		}
		w.met.OutputPairs.Store(js.Emitted)
		w.updateStored()
	}
	op.seq.Store(snap.Seq)
	return op, nil
}

// isReplayDup reports whether a data tuple is a replayed duplicate the
// restored state already covers. On a fresh operator dedup is nil and
// the check is one pointer compare; on a restored one the map bounds
// stay fixed at the snapshot's contents, and the max-seq gate keeps
// post-restore traffic out of the map lookup.
func (w *joiner) isReplayDup(t *join.Tuple) bool {
	if w.dedup == nil || t.Seq == 0 || t.Seq > w.dedupMax {
		return false
	}
	_, dup := w.dedup[t.Seq]
	return dup
}
