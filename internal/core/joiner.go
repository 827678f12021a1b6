package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/dataflow"
	"repro/internal/faultpoint"
	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/storage"
)

// joiner is one joiner task (§3.2): it stores its assigned partition
// pair, joins incoming tuples against it, and participates in
// migrations with the epoch protocol of Alg. 3.
//
// During a migration a joiner keeps three stores:
//
//	state      — τ ∪ ∆, the old-epoch state, placed per the old mapping
//	mig.mu     — µ, state migrated in from peers, placed per the new mapping
//	mig.dp     — ∆′, new-epoch arrivals, placed per the new mapping
//
// which compute the seven-way output decomposition of Lemma 4.6:
// old-epoch arrivals probe state (parts 1–3) and, where kept under the
// new mapping, ∆′ (part 5 and the local half of 4 via forwarding);
// migrated-in tuples probe ∆′ (part 4); new-epoch arrivals probe µ, ∆′
// and Keep(τ∪∆) (parts 4–7). On completion the three stores merge and
// the discards of the splitting relation are applied (Alg. 3 line 29).
//
// Every epoch rides the same batch path: a data tuple is only ever
// processed as part of a same-side run — one data envelope is one run
// (handleBatch, runTuples) — and a migrated-in block as one run per
// side (onMigBlocks). Which stores a
// run probes and where it lands depend on the epoch; Keep is a filter
// over the pairs the run collected (filterKept), never a per-pair
// callback.
type joiner struct {
	id    int
	pred  join.Predicate
	numRe int // reshuffler count: signals to await per migration

	cell    matrix.Cell
	mapping matrix.Mapping
	epoch   uint32
	table   []int // joiner id per row-major cell of mapping

	state *storage.Store
	mig   *migState

	// ckpt is the in-progress checkpoint barrier alignment (nil
	// otherwise); ckptC the coordinator's assembly channel (nil without
	// a backend). dedup/dedupMax is the restored sequence filter: the
	// seqs this joiner's restored state already holds, so replayed
	// duplicates are dropped instead of re-stored and re-probed. nil on
	// fresh operators — the steady-state cost is one pointer compare.
	ckpt     *ckptBarrier
	ckptC    chan<- ckptEvent
	dedup    map[uint64]struct{}
	dedupMax uint64
	// ckptWM is the store watermark of this joiner's newest *committed*
	// checkpoint payload: the coordinator publishes it only after the
	// backend write succeeds, so the next barrier's delta is always
	// taken against durable state (a failed commit leaves the cell
	// untouched and the following delta re-covers the same suffix). nil
	// until the first commit — the first snapshot is always full.
	ckptWM atomic.Pointer[storage.StoreWatermark]

	dataIn    chan *envelope
	migIn     *dataflow.Queue[message]
	migNotify chan struct{}
	// runBuf is the reusable scratch buffer for the runs a joiner must
	// own: migrated blocks decode into it, and the replay-duplicate
	// filter and the ∆ path's kept sub-run copy into it, since envelope
	// bodies are shared with other joiners.
	runBuf []join.Tuple
	// pairBuf accumulates one run's matches until flushPending ships
	// them right after the run, so it is empty between runs; emitBatch
	// runs on this goroutine and the buffer is reused.
	pairBuf []join.Pair

	// hint is the operator's shared Reserve-hint cell (see operator.go);
	// resR/resS remember what this joiner last reserved per side so the
	// forecast is reapplied only after it has clearly outgrown it.
	hint       *reserveHint
	resR, resS int64

	topo      *topology
	ackCh     chan<- int
	emitBatch join.EmitBatch
	met       *metrics.Joiner
	stCfg     storage.Config
	// stop is the operator's cancellation signal; the task loop's
	// blocking waits select on it.
	stop   <-chan struct{}
	eos    int
	exited bool
}

// maxPairBufCap bounds how much flushed pair-buffer capacity a joiner
// retains between runs: a high-fanout run may balloon the buffer, and
// holding tens of megabytes per joiner for the stream's lifetime would
// turn one hot key into a permanent memory tax.
const maxPairBufCap = 1 << 15

// filterKept applies Keep(τ∪∆) to the pairs a run of rel-side probes
// just collected from the old-epoch state, pairBuf[n0:], compacting the
// survivors in place: a new-epoch tuple joins only the old-epoch state
// this machine retains under the new mapping. The probing member of
// every collected pair is the run's tuple, so the stored member is the
// other side; pairs before n0 belong to other probes and pass through
// untouched.
func (w *joiner) filterKept(rel matrix.Side, n0 int) {
	keep := w.mig.keep[rel.Other()]
	buf := w.pairBuf
	kept := buf[:n0]
	for i := n0; i < len(buf); i++ {
		stored := &buf[i].R
		if rel == matrix.SideR {
			stored = &buf[i].S
		}
		if keep.Has(stored.U) {
			kept = append(kept, buf[i])
		}
	}
	w.pairBuf = kept
}

// flushPending ships the run's filtered pairs: accounting and the user
// sink run on this goroutine via emitBatch, and the buffer is reused
// for the next run.
func (w *joiner) flushPending() {
	buf := w.pairBuf
	if len(buf) == 0 {
		return
	}
	w.emitBatch(buf)
	if cap(buf) > maxPairBufCap {
		w.pairBuf = nil
		return
	}
	w.pairBuf = buf[:0]
}

// migTarget is one destination of this joiner's outgoing state during
// a migration, with the filter selecting which old-epoch tuples it
// gets and the arena blocks (τ and ∆) under construction for it, which
// ship as kMigBlocks and which the receiver adopts into µ.
type migTarget struct {
	dest int
	// want is, per side, the routing values of the old-epoch tuples the
	// target gets: all of the merging relation and none of the
	// splitting one for an elementary step's partner, the child's own
	// partition of each relation for an expansion child.
	want   [2]matrix.Top
	blocks join.BlockEncoder
}

// migState is the in-flight migration context.
type migState struct {
	epoch      uint32
	newMapping matrix.Mapping
	newCell    matrix.Cell
	expand     bool
	// keep is, per side, the routing values of the stored old-epoch
	// tuples this machine retains under the new mapping.
	keep    [2]matrix.Top
	targets []migTarget
	mu      *storage.Store // µ: migrated-in state
	dp      *storage.Store // ∆′: new-epoch arrivals
	signals int
	// expectedDones is how many kMigDone messages finalization awaits:
	// 1 for an elementary step (the partner) and for an expansion
	// child (the parent); 0 for an expansion parent.
	expectedDones int
	dones         int
}

// run is the joiner task loop. Migrated tuples are processed at least
// at twice the rate of new tuples when both are pending (§4.3.2): two
// migration messages, each carrying up to a block of tuples, per data
// envelope, and a data envelope is one run. That preserves the 1.25
// competitive ratio under non-blocking operation (Thm 4.6).
//
// The deferred close releases the store's spill segments on every exit
// path — cancellation, panic (including armed crash faultpoints), and
// normal completion alike — so a torn-down operator never leaks spill
// temp files. Close is idempotent, so the post-Wait sweep in
// Operator.Finish double-closing the steady-state store is harmless;
// the migration stores (µ, ∆′) are reachable only here when a crash
// lands mid-exchange.
func (w *joiner) run() error {
	defer func() {
		_ = w.state.Close()
		if w.mig != nil {
			_ = w.mig.mu.Close()
			_ = w.mig.dp.Close()
		}
	}()
	for !w.finished() {
		progressed := false
		for i := 0; i < 2; i++ {
			if m, ok := w.migIn.TryPop(); ok {
				w.handle(m)
				progressed = true
			}
		}
		select {
		case e := <-w.dataIn:
			w.handleBatch(e)
			progressed = true
		default:
		}
		if !progressed {
			select {
			case e := <-w.dataIn:
				w.handleBatch(e)
			case <-w.migNotify:
			case <-w.stop:
				return nil
			}
		}
	}
	return nil
}

// handleBatch processes one data-plane envelope and releases this
// joiner's reference to it. It is the only place a data tuple is
// processed, in every epoch: a data envelope's body is a run of tuples
// of one relation sharing the header's epoch tag, and it goes to
// runTuples whole, as one run, without a copy — the body is shared with
// the other joiners of its row or column and nobody writes it — along
// with the shared window its columns were written into. A restored
// joiner's replay-duplicate filter copies the surviving tuples of a
// body that holds a duplicate into runBuf instead, and such a run has
// no window; the ∆ path copies its kept sub-run there too (runTuples).
//
// A control envelope carries one message, handled alone, so a signal
// that starts a migration, or a migration message that completes one,
// changes the class of the next run, never of one in progress. The ILF
// counters and stored-state gauges are updated once per envelope.
func (w *joiner) handleBatch(e *envelope) {
	if w.ckpt != nil && w.ckpt.seen[e.hdr.from] {
		// Barrier alignment: this link's marker already arrived, so the
		// envelope is post-barrier traffic — hold it aside (its reference
		// with it) until the remaining markers land, then replay it. Other
		// links keep flowing, so no joiner stalls the operator at the
		// barrier.
		w.ckpt.held = append(w.ckpt.held, e)
		return
	}
	if e.hdr.kind != kTuple {
		w.handle(e.hdr)
		e.release()
		return
	}
	w.maybeReserve()
	run, bytes, win := e.tuples, e.bytes, e.win
	if w.dedup != nil && w.anyReplayDup(run) {
		run, bytes, win = w.runBuf[:0], 0, join.Window{}
		for i := range e.tuples {
			if t := &e.tuples[i]; !w.isReplayDup(t) {
				run = append(run, *t)
				bytes += t.Bytes()
			}
		}
		w.runBuf = run
	}
	if len(run) > 0 {
		w.met.InputTuples.Add(int64(len(run)))
		w.met.InputBytes.Add(bytes)
		w.runTuples(run, win, e.hdr.epoch)
	}
	if w.mig != nil {
		// Ship the ∆ forwards buffered while processing this envelope;
		// nothing may linger once the joiner goes idle.
		w.migFlushAll()
	}
	w.updateStored()
	e.release()
}

// runTuples processes one run of same-side data tuples sharing an epoch
// tag — Alg. 3's HandleTuple1/HandleTuple2 for a whole run, classified
// once — and ships its matches. handleBatch hands it one envelope body
// per call, with the shared window its columns were written into (the
// zero Window when there is none): wherever the whole run is stored —
// the steady state, ∆ and ∆′ — the store keeps a view of the window
// instead of a copy. Tuples of one relation never join each other, so
// probing every store with the whole run before storing any of it
// emits exactly the pairs per-tuple probe-then-store would. Matches
// collect in pairBuf, and the run's output flushes once. The run may be
// a shared envelope body, so it is only read: the ∆ path's kept sub-run
// is compacted into runBuf, not in place.
func (w *joiner) runTuples(run []join.Tuple, win join.Window, epoch uint32) {
	rel := run[0].Rel
	switch {
	case w.mig == nil:
		if epoch != w.epoch {
			panic(fmt.Sprintf("core: joiner %d: tuple epoch %d outside migration (at %d)", w.id, epoch, w.epoch))
		}
		w.state.AddWindowCollect(run, win, &w.pairBuf)
	case epoch == w.epoch:
		// ∆: old-epoch arrivals during the migration (Alg. 3 lines 15-20).
		w.state.ProbeBatchCollect(run, &w.pairBuf) // run ⋈ (τ ∪ ∆)
		w.forwardMig(run)                          // Migrated(∆) to peers
		w.state.InsertWindow(run, win)
		// Everything else is done with the whole run, so its kept sub-run
		// compacts into runBuf (in place when the run already lives there:
		// the write index never passes the read index).
		kept := w.runBuf[:0]
		keep := w.mig.keep[rel]
		for i := range run {
			if keep.Has(run[i].U) {
				kept = append(kept, run[i])
			}
		}
		w.runBuf = kept
		w.mig.dp.ProbeBatchCollect(kept, &w.pairBuf) // Keep(∆) ⋈ ∆′
	case epoch == w.mig.epoch:
		// ∆′: new-epoch arrivals (Alg. 3 lines 12-14 / 24-26).
		w.mig.mu.ProbeBatchCollect(run, &w.pairBuf) // run ⋈ µ
		n1 := len(w.pairBuf)
		w.state.ProbeBatchCollect(run, &w.pairBuf) // run ⋈ Keep(τ ∪ ∆)
		w.filterKept(rel, n1)
		w.mig.dp.AddWindowCollect(run, win, &w.pairBuf) // run ⋈ ∆′, then store
	default:
		panic(fmt.Sprintf("core: joiner %d: tuple epoch %d, joiner epoch %d, migration epoch %d",
			w.id, epoch, w.epoch, w.mig.epoch))
	}
	w.flushPending()
}

// reserveMin is the smallest per-side forecast worth acting on:
// below it the directory is a few pages at most and natural growth is
// cheaper than hint bookkeeping.
const reserveMin = 1 << 12

// maybeReserve polls the controller's published per-joiner forecast
// (two atomic loads per envelope) and, when a side's forecast has
// grown past what was last applied, presizes the store to it. The
// forecast is reserved exactly: it trails the stream, so a multiple
// would skip the next growth doubling too, but the measured GC cost
// of the over-allocation outweighs the rehashes it avoids — and the
// store's incremental rehash keeps the trailing doublings smooth
// anyway. The publisher only moves the hint on >=25% growth, so the
// Reserve call itself runs logarithmically often, not per envelope. A
// side that a live segment serves (join.HashIndex.Reserve) presizes
// nothing: its slot's writer indexes its windows, and an empty private
// directory per joiner would give back what sharing the index saves.
func (w *joiner) maybeReserve() {
	if w.hint == nil {
		return
	}
	changed := false
	if hr := w.hint.perR.Load(); hr >= reserveMin && hr > w.resR {
		w.resR = hr
		changed = true
	}
	if hs := w.hint.perS.Load(); hs >= reserveMin && hs > w.resS {
		w.resS = hs
		changed = true
	}
	if changed {
		w.state.Reserve(int(w.resR), int(w.resS))
	}
}

func (w *joiner) finished() bool { return w.eos >= w.numRe && w.mig == nil }

// handle processes one control or migration message; data tuples never
// come here (handleBatch runs them).
func (w *joiner) handle(m message) {
	switch m.kind {
	case kEOS:
		w.eos++
	case kSignal:
		w.onSignal(m)
	case kCkpt:
		w.onCkptMarker(m)
	case kMigBegin:
		w.ensureMig(m.epoch, m.mapping, m.expand)
	case kMigBlocks:
		w.onMigBlocks(m)
	case kMigDone:
		if w.mig == nil || w.mig.epoch != m.epoch {
			panic(fmt.Sprintf("core: joiner %d got MigDone for epoch %d outside migration", w.id, m.epoch))
		}
		w.mig.dones++
		w.maybeFinalize()
	}
}

// ckptBarrier is an in-progress checkpoint alignment: which links'
// markers have arrived, and the post-barrier envelopes held aside from
// them.
type ckptBarrier struct {
	id    uint64
	seen  []bool
	count int
	held  []*envelope
	// full forces a self-contained snapshot (chain compaction or the
	// first checkpoint); it rides the markers' epoch field.
	full bool
}

// onCkptMarker processes one reshuffler's checkpoint barrier marker
// (checkpoint id in tuple.Seq). The controller only issues a
// checkpoint between migrations, so mig is always nil here — the
// snapshot never has to capture a three-store migration in progress.
func (w *joiner) onCkptMarker(m message) {
	id := m.tuple.Seq
	if w.mig != nil {
		panic(fmt.Sprintf("core: joiner %d: checkpoint marker during migration epoch %d", w.id, w.mig.epoch))
	}
	if w.ckpt == nil {
		faultpoint.Crash(faultpoint.BeforeBarrier)
		w.ckpt = &ckptBarrier{id: id, seen: make([]bool, w.numRe), full: m.epoch != 0}
	}
	if w.ckpt.id != id {
		panic(fmt.Sprintf("core: joiner %d: overlapping checkpoints %d and %d", w.id, w.ckpt.id, id))
	}
	if !w.ckpt.seen[m.from] {
		w.ckpt.seen[m.from] = true
		w.ckpt.count++
	}
	if w.ckpt.count == w.numRe {
		w.completeBarrier()
	}
}

// completeBarrier runs once all numRe markers have arrived: the joiner
// has processed exactly the pre-barrier prefix of every link — the
// consistent cut. Every run flushes its own pairs, so the emitted count
// is the cut position in this joiner's output stream. It captures its
// store — incrementally past the last committed watermark when one
// exists and the barrier doesn't force a full; frozen arena blocks by
// reference, so this is O(blocks) — hands the capture to the
// coordinator, which encodes it, and replays the held post-barrier
// envelopes.
func (w *joiner) completeBarrier() {
	var wm *storage.StoreWatermark
	if !w.ckpt.full {
		wm = w.ckptWM.Load()
	}
	capture, next, _ := w.state.Capture(wm)
	ev := ckptEvent{
		kind:    evSnap,
		ckpt:    w.ckpt.id,
		idx:     w.id,
		emitted: w.met.OutputPairs.Load(),
		capture: capture,
		wm:      next,
		wmCell:  &w.ckptWM,
	}
	held := w.ckpt.held
	w.ckpt = nil
	select {
	case w.ckptC <- ev:
	case <-w.stop:
		return
	}
	faultpoint.Crash(faultpoint.AfterBarrier)
	for _, e := range held {
		w.handleBatch(e)
	}
}

// onSignal processes one reshuffler's epoch-change signal. The first
// signal starts the migration (Alg. 3 line 2: "Send τ for migration");
// the last one guarantees no further old-epoch tuples will arrive
// (line 4), at which point outgoing MigDone markers are flushed.
func (w *joiner) onSignal(m message) {
	w.ensureMig(m.epoch, m.mapping, m.expand)
	w.mig.signals++
	if w.mig.signals == w.numRe {
		for i := range w.mig.targets {
			tgt := &w.mig.targets[i]
			// Flush the pending blocks first so the done marker arrives
			// after every migrated tuple on its link.
			w.migShip(tgt)
			w.topo.pushMig(tgt.dest, message{kind: kMigDone, epoch: w.mig.epoch, from: w.id})
		}
		w.maybeFinalize()
	}
}

// ensureMig enters migration mode if not already in it, snapshotting
// and forwarding τ. It is triggered by the first reshuffler signal or,
// possibly earlier, by a peer's kMigBegin.
func (w *joiner) ensureMig(epoch uint32, newMapping matrix.Mapping, expand bool) {
	if w.mig != nil {
		if w.mig.epoch != epoch {
			panic(fmt.Sprintf("core: joiner %d: overlapping migrations %d and %d", w.id, w.mig.epoch, epoch))
		}
		return
	}
	if epoch != w.epoch+1 {
		panic(fmt.Sprintf("core: joiner %d: epoch jump %d -> %d", w.id, w.epoch, epoch))
	}
	mig := &migState{
		epoch:      epoch,
		newMapping: newMapping,
		expand:     expand,
		mu:         storage.NewStore(w.pred, w.stCfg),
		dp:         storage.NewStore(w.pred, w.stCfg),
	}
	if expand {
		e := matrix.NewExpansion(w.mapping)
		if e.To != newMapping {
			panic(fmt.Sprintf("core: joiner %d: expansion to %v but signaled %v", w.id, e.To, newMapping))
		}
		children := e.Children(w.cell)
		mig.newCell = children[0] // the parent continues as child 0
		mig.targets = make([]migTarget, 3)
		for k := range mig.targets {
			mig.targets[k].dest = childID(len(w.table), w.id, k)
		}
		for _, side := range migSides {
			mig.keep[side] = e.OwnTop(children[0], side)
			for k := range mig.targets {
				mig.targets[k].want[side] = e.OwnTop(children[k+1], side)
			}
		}
		mig.expectedDones = 0
	} else {
		tr := matrix.NewTransition(w.mapping, newMapping)
		mig.newCell = tr.NewCell(w.cell)
		mig.targets = []migTarget{{dest: w.table[w.mapping.MachineOf(tr.Partner(w.cell))]}}
		for _, side := range migSides {
			mig.keep[side] = tr.KeepTop(w.cell, side)
			mig.targets[0].want[side] = matrix.TopNone
		}
		mig.targets[0].want[tr.Exchange] = matrix.TopAll
		mig.expectedDones = 1
	}
	w.mig = mig

	// Announce, then snapshot-and-send τ (Alg. 3 line 3): per target
	// and side, one pass over the stored u column copies the target's
	// partition into its blocks, which ship as they fill. Subsequent
	// old-epoch arrivals (∆) are forwarded on arrival.
	for _, tgt := range mig.targets {
		w.topo.pushMig(tgt.dest, message{kind: kMigBegin, epoch: epoch, mapping: newMapping, expand: expand, from: w.id})
	}
	for i := range mig.targets {
		tgt := &mig.targets[i]
		ship := func() { w.migShip(tgt) }
		for _, side := range migSides {
			n := w.state.SelectInto(side, tgt.want[side], &tgt.blocks, migBlockFlush, ship)
			w.met.MigratedOut.Add(int64(n))
		}
	}
	// Ship the snapshot promptly; later ∆ forwards flush per processed
	// data envelope.
	w.migFlushAll()
}

// migSides lists both relations, in the order migration state moves.
var migSides = [2]matrix.Side{matrix.SideR, matrix.SideS}

// migBlockFlush is how many tuples a migration target's encoder
// accumulates before its blocks ship (one full columnar chunk).
const migBlockFlush = 512

// forwardMig buffers a run of old-epoch tuples (∆) into the arena
// blocks of every migration target whose filter selects them, shipping
// blocks as they fill.
func (w *joiner) forwardMig(run []join.Tuple) {
	rel := run[0].Rel
	for i := range w.mig.targets {
		tgt := &w.mig.targets[i]
		want := tgt.want[rel]
		if want.None() {
			continue
		}
		n := 0
		for j := range run {
			if !want.Has(run[j].U) {
				continue
			}
			tgt.blocks.Add(run[j])
			n++
			if tgt.blocks.Len() >= migBlockFlush {
				w.migShip(tgt)
			}
		}
		w.met.MigratedOut.Add(int64(n))
	}
}

// migShip sends tgt's buffered tuples, if any, as one kMigBlocks
// message and resets its encoder. A target in this process gets the
// sealed blocks by pointer, riding tuple.Payload as a zero-length
// handle (join.BlockSet.AsPayload); only a target behind a link gets
// them serialized.
func (w *joiner) migShip(tgt *migTarget) {
	enc, dest := &tgt.blocks, tgt.dest
	if enc.Len() == 0 {
		return
	}
	var payload []byte
	if w.topo.isRemote(dest) {
		payload = enc.AppendTo(nil)
	} else {
		payload = enc.Seal().AsPayload()
	}
	w.topo.pushMig(dest, message{
		kind:  kMigBlocks,
		epoch: w.mig.epoch,
		from:  w.id,
		tuple: join.Tuple{Payload: payload},
	})
}

// migFlushAll ships every target's buffered blocks.
func (w *joiner) migFlushAll() {
	for i := range w.mig.targets {
		w.migShip(&w.mig.targets[i])
	}
}

// onMigBlocks processes migrated-in tuples shipped as arena blocks —
// by pointer from a sender in this process, serialized from one behind
// a link — each side as one run. A run joins only ∆′ (Alg. 3 lines
// 10-11); its joins against old-epoch state were computed under the old
// mapping by the sender's side of the matrix. The blocks are then
// installed into µ by whole-block adoption. A side's run is
// materialized only when ∆′ holds tuples of the opposite side: early in
// a migration it does not, and τ's blocks go straight into µ.
func (w *joiner) onMigBlocks(m message) {
	if w.mig == nil || m.epoch != w.mig.epoch {
		panic(fmt.Sprintf("core: joiner %d: migration blocks for epoch %d outside migration", w.id, m.epoch))
	}
	bs := join.PayloadBlocks(m.tuple.Payload)
	if bs == nil {
		var err error
		if bs, err = join.DecodeBlocks(m.tuple.Payload); err != nil {
			// The sender's encoder and the transport CRC vouch for the
			// bytes, so this is a codec bug, not line noise; the runner
			// converts the panic into an operator error.
			panic(fmt.Sprintf("core: joiner %d: %v", w.id, err))
		}
	}
	w.met.InputTuples.Add(int64(bs.Tuples()))
	w.met.InputBytes.Add(bs.Bytes())
	for _, side := range migSides {
		if bs.Len(side) == 0 || w.mig.dp.Len(side.Other()) == 0 {
			continue
		}
		run := bs.AppendSide(w.runBuf[:0], side)
		w.mig.dp.ProbeBatchCollect(run, &w.pairBuf) // run ⋈ ∆′
		w.runBuf = run
	}
	w.flushPending()
	w.met.MigratedIn.Add(int64(bs.Tuples()))
	w.mig.mu.AdoptBlocks(bs)
	w.updateStored()
}

// maybeFinalize completes the migration once no further old-epoch
// tuples (all reshuffler signals) or migrated tuples (all MigDone
// markers) can arrive: apply discards, merge µ and ∆′ into the state,
// adopt the new mapping, and acknowledge the controller (Alg. 3
// FinalizeMigration).
func (w *joiner) maybeFinalize() {
	mig := w.mig
	if mig == nil || mig.signals < w.numRe || mig.dones < mig.expectedDones {
		return
	}
	faultpoint.Crash(faultpoint.MidMigration)
	for _, side := range migSides {
		w.state.Retain(side, mig.keep[side])
	}
	// Bulk-merge µ and ∆′ into the surviving state: hash-indexed state
	// is adopted by stealing whole arena chunks instead of re-inserting
	// tuple by tuple, so finalization cost is a directory rebuild, not
	// a second ingest of the migrated volume.
	for _, src := range [2]*storage.Store{mig.mu, mig.dp} {
		w.state.MergeFrom(src)
		_ = src.Close()
	}
	// Adopt the new placement.
	if mig.expand {
		w.table = expandTable(w.table, w.mapping)
	} else {
		w.table = stepTable(w.table, matrix.NewTransition(w.mapping, mig.newMapping))
	}
	w.mapping = mig.newMapping
	w.cell = mig.newCell
	w.epoch = mig.epoch
	w.mig = nil
	w.updateStored()
	select {
	case w.ackCh <- w.id:
	case <-w.stop:
	}
}

// updateStored refreshes the stored-state gauges.
func (w *joiner) updateStored() {
	tuples := int64(w.state.TotalLen())
	bytes := w.state.Bytes()
	arena, dir := w.state.Footprint()
	if w.mig != nil {
		for _, st := range [2]*storage.Store{w.mig.mu, w.mig.dp} {
			tuples += int64(st.TotalLen())
			bytes += st.Bytes()
			a, d := st.Footprint()
			arena += a
			dir += d
		}
	}
	w.met.StoredTuples.Store(tuples)
	w.met.StoredBytes.Store(bytes)
	w.met.ArenaBytes.Store(arena)
	w.met.DirectoryBytes.Store(dir)
	w.met.SpilledTuples.Store(w.state.Metrics.SpilledTuples.Load())
}

// childID returns the joiner id of the k-th (0-based) new child of
// parent under an expansion from jBefore joiners.
func childID(jBefore, parent, k int) int { return jBefore + 3*parent + k }

// stepTable relabels a cell->joiner table across an elementary
// migration step.
func stepTable(old []int, tr matrix.Transition) []int {
	nt := make([]int, len(old))
	for idx, id := range old {
		nt[tr.To.MachineOf(tr.NewCell(tr.From.CellOf(idx)))] = id
	}
	return nt
}

// expandTable relabels a cell->joiner table across a 1-to-4 expansion:
// each parent keeps the top-left child cell; its three children take
// the rest in the deterministic childID order.
func expandTable(old []int, oldMap matrix.Mapping) []int {
	e := matrix.NewExpansion(oldMap)
	nt := make([]int, e.To.J())
	for idx, id := range old {
		ch := e.Children(oldMap.CellOf(idx))
		nt[e.To.MachineOf(ch[0])] = id
		for k := 1; k < 4; k++ {
			nt[e.To.MachineOf(ch[k])] = childID(len(old), id, k-1)
		}
	}
	return nt
}
