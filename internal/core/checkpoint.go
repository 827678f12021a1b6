package core

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"

	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/metrics"
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
//     with mig == nil when its barrier completes. On an adaptive
//     operator a manual request also waits until the decisions the
//     input sent before it fires are taken (sampleGate).
//  2. Issue = the controller sets up the checkpoint's assembly
//     (ckptBuild), then broadcasts ctrlCkpt. Each reshuffler flushes
//     its pending batches, emits a kCkpt marker to every joiner on the
//     same FIFO links that carry epoch signals, and reports its
//     consumed-item count (the replay cut) to the controller. It then
//     ingests nothing until every cut, so every marker, is in
//     (ckptBuild.allCut).
//  3. Each joiner aligns Chandy-Lamport style, trivially after step 2:
//     one inbox carries every link, so all numRe markers arrive before
//     any post-barrier envelope, and the joiner has seen exactly the
//     pre-barrier prefix of every link. That prefix is also a prefix of
//     each grid line's window order, which every joiner of the line
//     takes in writer order (shared.go), so the barrier freezes no
//     segment. Alg. 3's hand-off needs no wait: a line belongs to one
//     epoch, and each reshuffler's old-epoch windows precede its
//     signal. The joiner captures its store (Store.Capture): the arena
//     blocks past each index's delta watermark by reference, and only
//     the parts that cannot be held by reference — an ordered index,
//     spilled records — encoded; a spilled record it cannot read back
//     fails the checkpoint as a failed backend write does. That is
//     O(blocks), not O(bytes): the joiner hands the capture to the
//     controller and goes on, and other joiners never stall. Holding
//     blocks by reference is safe because blocks below the prefix
//     change only through Retain, which runs only in migrations, and
//     the controller starts no migration or expansion while a
//     checkpoint is in flight — until it has committed it.
//  4. The controller assembles the operator snapshot (mapping, table,
//     cuts, per-joiner captures) and collects the views of every
//     capture into a block table: a block that two or more joiners view
//     — a grid row's or column's shared line block — is encoded once,
//     as a table entry, and each joiner's record references it, so the
//     blob holds each stored tuple's columns about once, not once per
//     replica. It encodes the snapshot into one exact-size blob — the
//     table's and every joiner's regions written in place, in
//     parallel — commits it through the backend's atomic-rename path,
//     and only then trims the replay log up to the cuts of the oldest
//     generation it retains (ReplayLog; no snapshot holds the log). A
//     crash anywhere leaves either the previous checkpoint or the new
//     one — never a torn mix — and the log always covers everything after
//     the newest durable cut. Each checkpoint encodes a fresh blob: a
//     retrying backend may still be reading an abandoned attempt's.
//     After the commit it rules on the next snapshot: a delta, unless
//     the committed chain's blobs add up to more than two full
//     snapshots as measured at this barrier (every capture knows its
//     full size in O(blocks), and OperatorSnapshot.FullSize counts each
//     shared block once, as the table would) — more dead bytes than
//     live ones. Dead
//     bytes are superseded views of partly filled blocks, ordered
//     indexes re-encoded in every link and blocks a migration's Retain
//     rebuilt. A full snapshot of F bytes is then paid for by at least
//     F dead bytes already written, the amortization Lemma 4.4 makes
//     for migrations: checkpoint bytes stay within twice the delta
//     bytes, and a restore reads at most 2F plus one link.
//
// Restore rebuilds joiner state through the same MergeFrom/adopt()
// whole-block install path migration finalization uses — each table
// entry decoded once, into one block every joiner that names it views —
// then replays the log, streamed from each ring's blocks a chunk at a
// time. Routing is deterministic in (seed, seq) — see join.UMix — so a
// replayed tuple that was already inside the cut lands on the joiners
// that restored it and is dropped by their sequence-number filter.

// ErrNoBackend is returned by Checkpoint when the operator was built
// without a storage backend.
var ErrNoBackend = errors.New("core: checkpointing requires a storage backend (Config.Backend)")

// ReplayLog is the upstream backup on the ingest edge (§4.3.3): one
// append-only ring per reshuffler source ring, holding every accepted
// input item until a checkpoint covering it commits durably. Appends
// happen under the same per-ring mutex as the ring send, so log order
// equals consumption order and a reshuffler's consumed-count at its
// barrier is exactly a log prefix length. Trim cuts only to the oldest
// retained generation's cuts, so with CheckpointKeep k a ring holds
// about k checkpoint intervals of input.
//
// A ring keeps its items as rows of arena blocks (join.BlockLog): key,
// aux and seq, 24 bytes a row, with the u and meta word its block's
// header derives — logged items carry U zero unless their caller set
// it, and R and S rows alternate, so a block has a meta column (33 B an
// item in all) and a u or payload column only when some row needs one.
// The feeder's append writes a block's worth of rows at a time, into
// blocks allocated a group at a time; Trim and the stop path's undo
// release the blocks they empty and clear the payload slots they cut,
// so the log pins no payload it no longer holds. Len is O(1) per ring,
// and the operator's ReplayLogItems and ReplayLogBytes gauges follow
// every append, trim and undo.
type ReplayLog struct {
	rings []replayRing
}

type replayRing struct {
	mu sync.Mutex
	// base counts items already trimmed: the ring's consumed-cut of the
	// newest durable checkpoint.
	base int64
	log  join.BlockLog
	met  *metrics.Operator
}

func newReplayLog(numRings int, met *metrics.Operator) *ReplayLog {
	l := &ReplayLog{rings: make([]replayRing, numRings)}
	for d := range l.rings {
		l.rings[d].met = met
	}
	return l
}

// change runs fn on the ring's log and moves the gauges by what it
// changed. The caller holds rg.mu.
func (rg *replayRing) change(fn func(*join.BlockLog)) {
	n0, b0 := rg.log.Len(), rg.log.Bytes()
	fn(&rg.log)
	rg.met.ReplayLogItems.Add(int64(rg.log.Len() - n0))
	rg.met.ReplayLogBytes.Add(rg.log.Bytes() - b0)
}

// append logs items after the ring's retained ones, in order. The
// caller holds rg.mu.
func (rg *replayRing) append(items []join.Tuple) {
	rg.change(func(l *join.BlockLog) { l.Append(items) })
}

// dealt counts the items ever dealt to ring d: the trimmed ones and the
// retained ones.
func (l *ReplayLog) dealt(d int) int64 {
	rg := &l.rings[d]
	rg.mu.Lock()
	defer rg.mu.Unlock()
	return rg.base + int64(rg.log.Len())
}

// truncate takes back the newest items until n remain: the stop path's
// undo of an append whose send did not happen. The caller holds rg.mu.
func (rg *replayRing) truncate(n int) {
	rg.change(func(l *join.BlockLog) { l.DropNewest(l.Len() - n) })
}

// Trim drops, per ring, the items a durable checkpoint covers: the
// first cuts[d]-base items of ring d. Called by the control task only
// after the backend committed the snapshot.
func (l *ReplayLog) Trim(cuts []int64) {
	for d := range l.rings {
		if d >= len(cuts) {
			break
		}
		rg := &l.rings[d]
		rg.mu.Lock()
		if drop := cuts[d] - rg.base; drop > 0 {
			rg.change(func(l *join.BlockLog) { l.DropOldest(int(drop)) })
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
		n += rg.log.Len()
		rg.mu.Unlock()
	}
	return n
}

// read copies ring d's retained items from index from on into dst and
// returns how many it copied, so a replay streams the ring a chunk at a
// time and the log's lock stays short.
func (l *ReplayLog) read(d, from int, dst []join.Tuple) int {
	rg := &l.rings[d]
	rg.mu.Lock()
	defer rg.mu.Unlock()
	return rg.log.Read(from, dst)
}

// maxSeq returns the largest ingestion sequence number retained.
func (l *ReplayLog) maxSeq() uint64 {
	var m uint64
	for d := range l.rings {
		rg := &l.rings[d]
		rg.mu.Lock()
		m = max(m, rg.log.MaxSeq())
		rg.mu.Unlock()
	}
	return m
}

// Checkpoint event kinds: the barrier contributions the control task
// assembles.
const (
	evCut  = iota // reshuffler: consumed-count at its barrier
	evSnap        // joiner: state capture at its barrier
)

// ckptEvent is one message on the control task's assembly channel,
// for the one checkpoint in flight.
type ckptEvent struct {
	kind    int
	idx     int   // reshuffler id (evCut) or joiner id (evSnap)
	cut     int64 // evCut
	emitted int64 // evSnap: OutputPairs at the barrier
	capture *storage.StoreCapture
	// err (evSnap) is the capture's failure: a spilled record that
	// could not be read back, so the checkpoint must not commit.
	err error
	// evSnap: the watermark a later delta may be taken against once
	// this payload commits, and the joiner's cell to publish it into.
	// The cell pointer rides the event, so the control task needs no
	// joiner lookup by id.
	wm     storage.StoreWatermark
	wmCell *atomic.Pointer[storage.StoreWatermark]
}

// ckptCommit is one committed checkpoint's byte figures: the link's
// blob, a full snapshot's size at its barrier, and the committed
// chain's bytes with the link included.
type ckptCommit struct {
	id                uint64
	blob, full, chain int64
}

// ckptBuild is the control task's assembly of the in-flight checkpoint:
// the barrier's shape as issued, the contributions so far, and the
// Checkpoint calls its outcome answers.
type ckptBuild struct {
	id       uint64
	epoch    uint32
	mapping  matrix.Mapping
	table    []int
	cuts     []int64 // one per reshuffler
	cutsGot  int
	joiners  []storage.JoinerSnapshot
	snaps    []ckptEvent // each joiner's evSnap, for its watermark
	snapsGot int
	full     bool
	err      error // the first failed capture
	allCut   chan struct{}
	waiters  []chan error
}

// ckptCut remembers one committed checkpoint's replay cuts. The
// control task keeps the newest CheckpointKeep of them (mirroring the
// backend's keep-K generation retention) and trims the replay log only
// to the OLDEST retained one, so a fallback restore to any retained
// generation still finds the log covering everything past its cut.
type ckptCut struct {
	id   uint64
	cuts []int64
}

// maybeAutoCkpt queues a checkpoint once CheckpointEvery tuples have
// been ingested since the last checkpoint was issued, counted on the
// exact merged cells. It runs on every tick and drain report.
func (c *controller) maybeAutoCkpt() {
	every := c.op.cfg.CheckpointEvery
	if c.ckptC == nil || every <= 0 {
		return
	}
	if snap := c.ingest.Snapshot(); snap.R+snap.S-c.ckptLastTotal >= every {
		c.ckptQueued = true
		c.maybeIssueCkpt()
	}
}

// onCkptRequest services one Operator.Checkpoint call: the reply is
// queued for the next issued checkpoint, whose barrier covers
// everything sent before the request. On an adaptive operator it waits
// for the decisions that input fires (releaseHold).
func (c *controller) onCkptRequest(reply chan error) {
	if c.ckptC == nil {
		reply <- ErrNoBackend
		return
	}
	if c.finished {
		reply <- ErrFinished
		return
	}
	c.ckptPending = append(c.ckptPending, reply)
	c.ckptQueued = true
	if c.adaptive {
		c.holdAt = max(c.holdAt, c.op.replay.dealt(0))
	}
	c.maybeIssueCkpt()
}

// maybeIssueCkpt issues the queued checkpoint if nothing blocks it: a
// hold defers it to releaseHold, a migration step to the step's last
// ack (onAck), an in-flight checkpoint to its commit (onCkptEvent). The
// assembly is set up before the ctrlCkpt broadcast, so it knows the
// barrier's shape before any cut or capture arrives. Every issue,
// manual or automatic, restarts the CheckpointEvery count, and counts
// from the issue, not from when the checkpoint was queued: one queued
// behind a migration step covers what arrived meanwhile.
func (c *controller) maybeIssueCkpt() {
	if !c.ckptQueued || c.holdAt > 0 || c.ckpt != nil || c.migrating() || c.finished {
		return
	}
	c.ckptQueued = false
	snap := c.ingest.Snapshot()
	c.ckptLastTotal = snap.R + snap.S
	j := len(c.table)
	cur := &ckptBuild{
		id:      c.ckptNext,
		epoch:   c.epoch,
		mapping: c.deployed,
		table:   append([]int(nil), c.table...),
		cuts:    make([]int64, len(c.resh)),
		joiners: make([]storage.JoinerSnapshot, j),
		snaps:   make([]ckptEvent, j),
		full:    c.op.nextCkptFull(),
		allCut:  make(chan struct{}),
		waiters: c.ckptPending,
	}
	c.ckpt = cur
	c.ckptPending = nil
	c.ckptNext++
	c.broadcast(ctrlMsg{kind: ctrlCkpt, ckpt: cur.id, full: cur.full, cut: cur.allCut})
}

// onCkptEvent folds one contribution into the in-flight checkpoint. The
// last cut releases every reshuffler's ingest; the last contribution
// commits the checkpoint, answers its waiters, and lets deferred work —
// a request queued mid-flight, the next chain step, the finish —
// proceed.
func (c *controller) onCkptEvent(ev ckptEvent) {
	cur := c.ckpt
	switch ev.kind {
	case evCut:
		cur.cuts[ev.idx] = ev.cut
		if cur.cutsGot++; cur.cutsGot == len(cur.cuts) {
			close(cur.allCut)
		}
	case evSnap:
		cur.joiners[ev.idx] = storage.JoinerSnapshot{ID: ev.idx, Emitted: ev.emitted, Capture: ev.capture}
		cur.snaps[ev.idx] = ev
		cur.snapsGot++
		if ev.err != nil && cur.err == nil {
			cur.err = fmt.Errorf("core: capture checkpoint %d of joiner %d: %w", cur.id, ev.idx, ev.err)
		}
	}
	if cur.cutsGot < len(cur.cuts) || cur.snapsGot < len(cur.table) {
		return
	}
	// Drop the captures before a migration may start: they pin the
	// joiners' blocks.
	c.ckpt = nil
	err := cur.err
	if err == nil {
		err = c.op.commitCkpt(cur)
	}
	if err != nil {
		// A failed capture or write fails the checkpoint alike.
		// Graceful degradation: the snapshot is lost but nothing
		// durable moved — watermarks stay unpublished (the next delta
		// re-covers the same suffix) and the replay log stays
		// untrimmed, so the previous checkpoint remains fully
		// recoverable. Degrade keeps joining and retries at the next
		// boundary; FailStop surfaces the error through Wait.
		c.op.met.CheckpointFailures.Add(1)
		if c.op.cfg.CheckpointPolicy == CkptFailStop {
			c.op.runner.Cancel(err)
		} else {
			log.Printf("core: checkpoint %d failed (degrading, replay log kept): %v", cur.id, err)
		}
	}
	for _, reply := range cur.waiters {
		reply <- err
	}
	c.maybeIssueCkpt()
	c.issueNext()
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
		NumRe:     len(cur.cuts),
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
	for _, ev := range cur.snaps {
		if ev.wmCell != nil {
			wm := ev.wm
			ev.wmCell.Store(&wm)
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
// after Start and before any new Send. Each ring is re-sent a chunk at
// a time, straight from its blocks, so the log must be one no operator
// appends to or trims any more: a stopped one's.
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
	chunk := make([]join.Tuple, replayChunk)
	for d := range log.rings {
		for from := 0; ; {
			n := log.read(d, from, chunk)
			if n == 0 {
				break
			}
			if err := op.sendItems(n, func(i int) join.Tuple { return chunk[i] }); err != nil {
				return err
			}
			from += n
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
		if err := js.Restore(w.state); err != nil {
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

// anyReplayDup reports whether run holds a replayed duplicate: only
// then does handleBatch copy the run's survivors (and give up its
// shared window).
func (w *joiner) anyReplayDup(run []join.Tuple) bool {
	for i := range run {
		if w.isReplayDup(&run[i]) {
			return true
		}
	}
	return false
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
