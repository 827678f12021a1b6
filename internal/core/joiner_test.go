package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/exact"
	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/storage"
	"repro/internal/transport"
)

func TestStepTableRelabel(t *testing.T) {
	from := matrix.Mapping{N: 4, M: 2}
	to := matrix.Mapping{N: 2, M: 4}
	tr := matrix.NewTransition(from, to)
	old := []int{10, 11, 12, 13, 14, 15, 16, 17} // arbitrary ids, row-major
	nt := stepTable(old, tr)
	if len(nt) != 8 {
		t.Fatalf("len %d", len(nt))
	}
	// Every id must appear exactly once.
	seen := map[int]bool{}
	for _, id := range nt {
		if seen[id] {
			t.Fatalf("id %d twice in %v", id, nt)
		}
		seen[id] = true
	}
	// Spot-check: the machine at old cell (r,c) moves to
	// (r>>1, 2c+(r&1)).
	for idx, id := range old {
		c := from.CellOf(idx)
		nc := tr.NewCell(c)
		if nt[to.MachineOf(nc)] != id {
			t.Fatalf("old cell %v id %d not found at new cell %v", c, id, nc)
		}
	}
}

func TestExpandTableLayout(t *testing.T) {
	oldMap := matrix.Mapping{N: 2, M: 2}
	old := []int{0, 1, 2, 3}
	nt := expandTable(old, oldMap)
	if len(nt) != 16 {
		t.Fatalf("len %d", len(nt))
	}
	seen := map[int]bool{}
	for _, id := range nt {
		if seen[id] {
			t.Fatalf("id %d twice", id)
		}
		seen[id] = true
	}
	// Parents keep the top-left child cell.
	newMap := oldMap.Expand()
	e := matrix.NewExpansion(oldMap)
	for idx, id := range old {
		ch := e.Children(oldMap.CellOf(idx))
		if nt[newMap.MachineOf(ch[0])] != id {
			t.Fatalf("parent %d lost its top-left cell", id)
		}
		for k := 1; k < 4; k++ {
			want := childID(4, id, k-1)
			if nt[newMap.MachineOf(ch[k])] != want {
				t.Fatalf("child cell %v has id %d, want %d", ch[k], nt[newMap.MachineOf(ch[k])], want)
			}
		}
	}
}

func TestChildIDDistinct(t *testing.T) {
	seen := map[int]bool{}
	for parent := 0; parent < 8; parent++ {
		for k := 0; k < 3; k++ {
			id := childID(8, parent, k)
			if id < 8 {
				t.Fatalf("child id %d collides with parents", id)
			}
			if seen[id] {
				t.Fatalf("child id %d duplicated", id)
			}
			seen[id] = true
		}
	}
}

// The operator must stay exact when joiner state overflows to the
// disk tier while migrations relocate it (spill segments participate
// in Scan/Retain).
func TestAdaptiveOperatorWithSpillExact(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pred := join.EquiJoin("eq", nil)
	var tuples []join.Tuple
	for i := 0; i < 300; i++ {
		tuples = append(tuples, join.Tuple{Rel: matrix.SideR, Key: rng.Int63n(40), Size: 64})
	}
	for i := 0; i < 6000; i++ {
		tuples = append(tuples, join.Tuple{Rel: matrix.SideS, Key: rng.Int63n(40), Size: 64})
	}
	withContent(rng, tuples)
	want := wantPairs(pred, tuples, contentOf)
	batchCases(t, func(t *testing.T, bs int) {
		op := runContentExact(t, Config{
			J: 4, Pred: pred, Adaptive: true, Warmup: 500, Seed: 3, BatchSize: bs,
			Storage: storage.Config{CapBytes: 16 * 1024, Dir: t.TempDir()},
		}, tuples, want)
		if op.Migrations() == 0 {
			t.Fatal("no migrations; test does not exercise spill relocation")
		}
		if !op.Metrics().AnySpill() {
			t.Fatal("no spill; test does not exercise the disk tier")
		}
		checkMigrationConserved(t, op.Metrics())
	})
}

// TestMigrationBlocksByReference pins the two forms migrated blocks
// take. An elementary step (2,1) -> (1,2) ships joiner 0's whole R
// state (τ, more than one block) and then a ∆ run to joiner 1. In
// process, every kMigBlocks message carries its block set by pointer
// with zero payload bytes, the receiver adopts it on its own goroutine
// while the sender goes on filling fresh blocks (under -race, any block
// the two still shared would show), and the sender's encoder is empty
// after every ship. With joiner 1 hosted behind a Pipe, the same
// migration crosses as bytes that decode to block sets of the same
// content, message for message, so the two forms cannot drift.
func TestMigrationBlocksByReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mk := func(seq uint64) join.Tuple {
		// Row 0 of (2,1): the top bit of u is clear.
		tp := join.Tuple{Rel: matrix.SideR, Key: rng.Int63n(50), Seq: seq, U: rng.Uint64() >> 1, Size: int32(seq % 3 * 8)}
		if seq%4 == 0 {
			tp.Payload = []byte{byte(seq), byte(seq >> 8)}
		}
		return tp
	}
	var tau, delta []join.Tuple
	for seq := uint64(1); seq <= 700; seq++ {
		tau = append(tau, mk(seq))
	}
	for seq := uint64(701); seq <= 1000; seq++ {
		delta = append(delta, mk(seq))
	}
	begin := message{kind: kMigBegin, epoch: 1, mapping: matrix.Mapping{N: 1, M: 2}}
	setup := func() (*Operator, *joiner) {
		op := mustOperator(t, Config{
			J: 2, Pred: join.EquiJoin("eq", nil), Initial: matrix.Mapping{N: 2, M: 1},
			EmitBatch: func([]join.Pair) {},
		})
		op.joiners[0].state.InsertBatch(tau)
		return op, op.joiners[0]
	}
	// migrate runs the sender's side: τ on kMigBegin, then one ∆
	// envelope, checking the encoder is empty after each, and ends the
	// stream with a kMigDone the reader stops at.
	migrate := func(op *Operator, sender *joiner) {
		sender.handle(begin)
		if n := sender.mig.targets[0].blocks.Len(); n != 0 {
			t.Fatalf("the encoder holds %d tuples after τ shipped", n)
		}
		sender.handleBatch(dataEnv(0, delta...))
		if n := sender.mig.targets[0].blocks.Len(); n != 0 {
			t.Fatalf("the encoder holds %d tuples after the ∆ envelope shipped", n)
		}
		op.topo.pushMig(1, message{kind: kMigDone, epoch: 1, from: 0})
	}

	// In process: the receiver runs on its own goroutine.
	op, sender := setup()
	receiver := op.joiners[1]
	receiver.handle(begin)
	type batch struct {
		tuples []join.Tuple
		bytes  int64
	}
	var local []batch
	received := make(chan struct{})
	go func() {
		defer close(received)
		for {
			m, ok := receiver.migIn.TryPop()
			if !ok {
				<-receiver.migNotify
				continue
			}
			if m.kind == kMigDone {
				return
			}
			if m.kind == kMigBlocks {
				bs := join.PayloadBlocks(m.tuple.Payload)
				if bs == nil || len(m.tuple.Payload) != 0 {
					t.Errorf("a local kMigBlocks message carries %d payload bytes and block set %p", len(m.tuple.Payload), bs)
					return
				}
				local = append(local, batch{bs.AppendSide(nil, matrix.SideR), bs.Bytes()})
			}
			receiver.handle(m)
		}
	}()
	migrate(op, sender)
	<-received
	if t.Failed() {
		return
	}
	var adopted []join.Tuple
	receiver.mig.mu.Scan(matrix.SideR, func(tp join.Tuple) bool { adopted = append(adopted, tp); return true })
	if want := append(append([]join.Tuple(nil), tau...), delta...); !sameTuples(adopted, want) {
		t.Fatalf("µ holds %d tuples after the local hand-over, want τ ∪ ∆ (%d)", len(adopted), len(want))
	}

	// Behind a Pipe: the same migration arrives as bytes.
	op, sender = setup()
	near, far := transport.Pipe()
	defer near.Close()
	peer := newRemotePeer("pipe", near, op.met, op.stop, func(err error) { t.Error(err) })
	op.topo.remote = []*remotePeer{nil, peer}
	migrate(op, sender)
	peer.queueDone()
	go func() { _ = peer.writer() }()
	var remote []batch
	for {
		f, err := far.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if f.Kind == transport.KindDone {
			break
		}
		_, m, err := decodeMig(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if m.kind != kMigBlocks {
			continue
		}
		if len(m.tuple.Payload) == 0 || join.PayloadBlocks(m.tuple.Payload) != nil {
			t.Fatal("a kMigBlocks frame decoded to a block-set handle, not bytes")
		}
		bs, err := join.DecodeBlocks(m.tuple.Payload)
		if err != nil {
			t.Fatal(err)
		}
		remote = append(remote, batch{bs.AppendSide(nil, matrix.SideR), bs.Bytes()})
	}
	if len(remote) != len(local) || len(local) < 3 {
		t.Fatalf("%d block messages crossed the Pipe, %d in process; want the same, at least 3", len(remote), len(local))
	}
	for i := range local {
		l, r := local[i], remote[i]
		if l.bytes != r.bytes || len(l.tuples) != len(r.tuples) {
			t.Fatalf("message %d: %d tuples / %d B in process, %d / %d B over the Pipe", i, len(l.tuples), l.bytes, len(r.tuples), r.bytes)
		}
		for j := range l.tuples {
			if !sameTuple(l.tuples[j], r.tuples[j]) {
				t.Fatalf("message %d tuple %d: %+v in process, %+v over the Pipe", i, j, l.tuples[j], r.tuples[j])
			}
		}
	}
}

// sameTuples reports whether got and want hold the same tuples,
// matched by sequence number.
func sameTuples(got, want []join.Tuple) bool {
	if len(got) != len(want) {
		return false
	}
	bySeq := make(map[uint64]join.Tuple, len(want))
	for _, tp := range want {
		bySeq[tp.Seq] = tp
	}
	for _, tp := range got {
		if w, ok := bySeq[tp.Seq]; !ok || !sameTuple(tp, w) {
			return false
		}
		delete(bySeq, tp.Seq)
	}
	return true
}

// TestEpochRunsExact drives two joiners and their reshuffler by hand
// through one elementary step, (2,1) -> (1,2), with every run class of
// the batch path: ∆ and ∆′ runs of both sides, in row and column
// envelopes of a random capacity that partial flushes cut at random
// points, while migrated blocks land between runs and the joiners
// advance in a random interleaving. The output must be every matching
// pair exactly once — for a hash (equi), an ordered (band) and a scan
// (neq) index. Dropping the Keep filter duplicates the pairs new-epoch
// tuples form with discarded old state.
//
// The stretches/ cases use larger envelopes, so envelopes of both
// relations, ∆ and ∆′, are pending together across the epoch signal.
func TestEpochRunsExact(t *testing.T) {
	for _, pred := range []join.Predicate{
		join.EquiJoin("eq", nil),
		join.BandJoin("band", 1, nil),
		join.ThetaJoin("neq", func(r, s join.Tuple) bool { return r.Key != s.Key }),
	} {
		for seed := int64(0); seed < 30; seed++ {
			t.Run(fmt.Sprintf("%v/seed=%d", pred, seed), func(t *testing.T) { epochStepExact(t, pred, seed, false) })
		}
		for seed := int64(0); seed < 10; seed++ {
			t.Run(fmt.Sprintf("stretches/%v/seed=%d", pred, seed), func(t *testing.T) { epochStepExact(t, pred, seed, true) })
		}
	}
}

func epochStepExact(t *testing.T, pred join.Predicate, seed int64, stretches bool) {
	rng := rand.New(rand.NewSource(seed))
	maxEnvelope := 8
	if stretches {
		maxEnvelope = 24
	}
	from, to := matrix.Mapping{N: 2, M: 1}, matrix.Mapping{N: 1, M: 2}
	emit, got := keySink(ckptKey, 0)
	op := mustOperator(t, Config{
		J: 2, Pred: pred, Initial: from, NumReshufflers: 1,
		BatchSize: 1 + rng.Intn(maxEnvelope), DataQueueCap: 1 << 16,
		EmitBatch: emit,
	})
	js := op.joiners
	r := handReshuffler(op)

	var items []join.Tuple
	// route hands the reshuffler n new tuples in runs of random length,
	// flushing its partial envelopes after some of them.
	route := func(n int) {
		for n > 0 {
			run := make([]join.Tuple, min(n, 1+rng.Intn(6)))
			for i := range run {
				run[i] = join.Tuple{Rel: matrix.Side(rng.Intn(2)), Key: rng.Int63n(6), U: rng.Uint64() | 1,
					Seq: uint64(len(items) + 1), Size: 8}
				items = append(items, run[i])
			}
			r.routeBatch(run)
			n -= len(run)
			if rng.Intn(4) == 0 {
				r.flushAll(&op.met.BatchFlushIdle)
			}
		}
		r.flushAll(&op.met.BatchFlushIdle)
	}
	// drive lets a random joiner take its next envelope until both links
	// are empty; after each envelope a random joiner handles up to two
	// pending migration messages.
	drive := func() {
		for len(js[0].dataIn)+len(js[1].dataIn) > 0 {
			id := rng.Intn(2)
			if len(js[id].dataIn) == 0 {
				id = 1 - id
			}
			js[id].handleBatch(<-js[id].dataIn)
			w := js[rng.Intn(2)]
			for p := rng.Intn(3); p > 0; p-- {
				if m, ok := w.migIn.TryPop(); ok {
					w.handle(m)
				}
			}
		}
	}

	route(40)
	r.applyCtrl(ctrlMsg{kind: ctrlEpoch, epoch: 1, mapping: to})
	route(80)
	drive()
	for progressed := true; progressed; {
		progressed = false
		for _, w := range js {
			if m, ok := w.migIn.TryPop(); ok {
				w.handle(m)
				progressed = true
			}
		}
	}
	for _, w := range js {
		if w.mig != nil || w.epoch != 1 {
			t.Fatalf("joiner %d did not finish the step (epoch %d)", w.id, w.epoch)
		}
	}
	route(30) // steady state on the merged stores
	drive()

	exact.Equal(t, *got, refPairs(pred, items))
}

// TestReplayDupsUncountedDuringMigration: a replayed duplicate that
// reaches a joiner mid-migration is dropped before the ILF counters see
// it, exactly as in steady state — it joins nothing and is not input.
func TestReplayDupsUncountedDuringMigration(t *testing.T) {
	pairs := 0
	op := mustOperator(t, Config{
		J: 2, Pred: join.EquiJoin("eq", nil), Initial: matrix.Mapping{N: 2, M: 1},
		EmitBatch: func(ps []join.Pair) { pairs += len(ps) },
	})
	w := op.joiners[0]
	// Restored state: the S tuple the duplicates would join (kept under
	// the new mapping), and the dedup set naming the duplicates.
	w.state.Insert(join.Tuple{Rel: matrix.SideS, Key: 7, Seq: 1})
	w.dedup = map[uint64]struct{}{2: {}, 3: {}}
	w.dedupMax = 3
	w.handle(message{kind: kMigBegin, epoch: 1, mapping: matrix.Mapping{N: 1, M: 2}})
	w.handleBatch(dataEnv(0, join.Tuple{Rel: matrix.SideR, Key: 7, Seq: 2})) // ∆
	w.handleBatch(dataEnv(1, join.Tuple{Rel: matrix.SideR, Key: 7, Seq: 3})) // ∆′
	if pairs != 0 {
		t.Fatalf("replayed duplicates emitted %d pairs", pairs)
	}
	if n := w.met.InputTuples.Load(); n != 0 {
		t.Fatalf("replayed duplicates counted as %d input tuples", n)
	}
}

// TestAlternatingEnvelopeRunsPerStretch: a stream whose sides
// alternate tuple by tuple costs one joiner run per envelope, and the
// reshuffler's row and column slots cut it into one envelope per side —
// not one run per side change — while staying exact. Every tuple shares its key
// with state stored beforehand, so every run emits pairs and the sink's
// call count is the run count.
func TestAlternatingEnvelopeRunsPerStretch(t *testing.T) {
	calls := 0
	pred := join.EquiJoin("eq", nil)
	emit, got := keySink(ckptKey, 0)
	op := mustOperator(t, Config{
		J: 1, Pred: pred, BatchSize: 64,
		EmitBatch: func(ps []join.Pair) { calls++; emit(ps) },
	})
	w := op.joiners[0]
	items := []join.Tuple{{Rel: matrix.SideR, Key: 7, Seq: 1, U: 1}, {Rel: matrix.SideS, Key: 7, Seq: 2, U: 1}}
	for _, it := range items {
		w.state.Insert(it)
	}
	n0 := len(items)
	for i := 0; i < 10; i++ {
		items = append(items, join.Tuple{Rel: matrix.Side(i % 2), Key: 7, Seq: uint64(len(items) + 1), U: 1})
	}
	r := handReshuffler(op)
	r.routeBatch(items[n0:])
	r.flushAll(&op.met.BatchFlushIdle)
	for len(w.dataIn) > 0 {
		w.handleBatch(<-w.dataIn)
	}
	if calls != 2 {
		t.Fatalf("the alternating stream took %d runs, want 2 (an R and an S run)", calls)
	}
	// Every pair, except the one both of whose members were stored
	// without probing.
	want := slices.DeleteFunc(refPairs(pred, items), func(k [2]uint64) bool { return k == [2]uint64{1, 2} })
	exact.Equal(t, *got, want)
}

// Static operator with a sub-working-set cap: spill flagged and exact.
func TestStaticOperatorWithSpillExact(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pred := join.BandJoin("band", 1, nil)
	tuples := mixedStream(rng, 1200, 1200, 200)
	want := stampedPairs(pred, tuples)
	got, op := runOperator(t, Config{
		J: 4, Pred: pred, Seed: 5,
		Storage: storage.Config{CapBytes: 4 * 1024, Dir: t.TempDir()},
	}, tuples)
	exact.Equal(t, got, want)
	if !op.Metrics().AnySpill() {
		t.Fatal("expected spill")
	}
}

func TestOperatorRoutedMessagesAccounting(t *testing.T) {
	pred := join.EquiJoin("eq", nil)
	rng := rand.New(rand.NewSource(14))
	tuples := mixedStream(rng, 500, 500, 50)
	_, op := runOperator(t, Config{J: 16, Pred: pred, Seed: 7}, tuples)
	// Square (4,4): every tuple fans out to exactly 4 machines.
	if got, want := op.Metrics().RoutedMessages.Load(), int64(4*1000); got != want {
		t.Fatalf("routed %d, want %d", got, want)
	}
	// Input counts at joiners must equal routed messages (no loss).
	if got := op.Metrics().TotalInputTuples(); got != 4*1000 {
		t.Fatalf("joiner input %d", got)
	}
}

// A second elastic expansion on top of the first: ids, tables and
// output all stay consistent.
func TestDoubleExpansionExact(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	pred := join.EquiJoin("eq", nil)
	tuples := mixedStream(rng, 13000, 13000, 70)
	want := stampedPairs(pred, tuples)
	// Per-joiner state passes M/2 at J=1 and J=4; MaxJoiners stops the
	// growth at J=16.
	emit, got := keySink(ckptKey, 0)
	op := mustOperator(t, Config{
		J: 1, Pred: pred, Adaptive: true, Seed: 9,
		Warmup:             200,
		MaxTuplesPerJoiner: 10000,
		MaxJoiners:         16,
		EmitBatch:          emit,
	})
	op.Start()
	// Alg. 2 checks whenever a side's count doubles since the last check,
	// and the first check lands wherever the controller's first
	// observation chunk crosses Warmup, so the first expansion fires
	// anywhere from ≈5 000 to ≈10 500 tuples and the second at about
	// twice that. The second is decided on the stream that arrives
	// after the first one has drained, and the controller decides
	// asynchronously, so feed until the first expansion has been issued,
	// wait until its last ack is in, and only then feed the rest —
	// otherwise a fast feeder can finish the stream while the first
	// migration drains, and no decision is taken past the end of the
	// input.
	i := 0
	for deadline := time.Now().Add(30 * time.Second); op.NumJoiners() < 4; {
		if i < len(tuples) {
			if err := op.Send(tuples[i]); err != nil {
				t.Fatal(err)
			}
			i++
			continue
		}
		if time.Now().After(deadline) {
			t.Fatalf("the first expansion never happened after %d tuples", i)
		}
		time.Sleep(time.Millisecond)
	}
	for deadline := time.Now().Add(30 * time.Second); op.Metrics().MigrationNanos.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("the first expansion never drained (issued by tuple %d)", i)
		}
		time.Sleep(time.Millisecond)
	}
	for ; i < len(tuples); i++ {
		if err := op.Send(tuples[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := op.Finish(); err != nil {
		t.Fatal(err)
	}
	exact.Equal(t, *got, want)
	if op.Metrics().Expansions.Load() < 2 {
		t.Fatalf("expansions %d, want >= 2 (J grew to %d)",
			op.Metrics().Expansions.Load(), op.NumJoiners())
	}
	if op.NumJoiners() < 16 {
		t.Fatalf("joiners %d after double expansion", op.NumJoiners())
	}
}

// TestJoinerEmitsBoundedSubRuns feeds band streams in envelopes of a
// block's rows and requires every EmitShard call to carry the pairs of
// at most probeRun probe tuples, in a pair buffer within maxPairBufCap,
// and the output to be exact. In the static case every S tuple is sent
// before the first R tuple, and every R tuple matches 30 or more stored
// S tuples at each joiner of its row: a joiner that shipped a whole
// run's pairs at once would hand the sink tens of thousands. The
// adaptive case migrates, so ∆ and ∆′ runs and migrated blocks probe
// too. A call's pairs all share their probe member's side, so the probe
// tuples it carries are the fewer of its distinct R and S members.
func TestJoinerEmitsBoundedSubRuns(t *testing.T) {
	pred := join.BandJoin("band", 17, nil)
	rng := rand.New(rand.NewSource(107))
	var static []join.Tuple
	for k := int64(0); k < 1000; k++ {
		for c := 0; c < 4; c++ {
			static = append(static, join.Tuple{Rel: matrix.SideS, Key: k, Size: 8})
		}
	}
	for i := 0; i < 1000; i++ {
		static = append(static, join.Tuple{Rel: matrix.SideR, Key: 17 + rng.Int63n(1000-34), Size: 8})
	}
	stampSeqs(static, 0)
	adaptive := make([]join.Tuple, 6300)
	for i := range adaptive {
		rel := matrix.SideS
		if rng.Intn(21) == 0 {
			rel = matrix.SideR
		}
		adaptive[i] = join.Tuple{Rel: rel, Key: rng.Int63n(400), Size: 8}
	}
	stampSeqs(adaptive, 0)
	for _, tc := range []struct {
		name   string
		cfg    Config
		tuples []join.Tuple
	}{
		{"static", Config{J: 4, Initial: matrix.Mapping{N: 2, M: 2}, NumReshufflers: 1}, static},
		{"adaptive", Config{J: 16, Adaptive: true, Warmup: 400}, adaptive},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			rec := newShardRecorder(16)
			var bad error
			cfg := tc.cfg
			cfg.Pred, cfg.Seed, cfg.BatchSize = pred, 5, join.WindowRows
			cfg.EmitShard = func(shard int, ps []join.Pair) {
				rs, ss := map[uint64]bool{}, map[uint64]bool{}
				for _, p := range ps {
					rs[p.R.Seq], ss[p.S.Seq] = true, true
				}
				rec.emit(shard, ps)
				mu.Lock()
				defer mu.Unlock()
				switch n := min(len(rs), len(ss)); {
				case bad != nil:
				case n > probeRun:
					bad = fmt.Errorf("joiner %d emitted the pairs of %d probe tuples in one call, want at most %d", shard, n, probeRun)
				case cap(ps) > maxPairBufCap:
					bad = fmt.Errorf("joiner %d emitted from a pair buffer of capacity %d, past %d", shard, cap(ps), maxPairBufCap)
				}
			}
			op := mustOperator(t, cfg)
			op.Start()
			if err := op.SendBatch(tc.tuples); err != nil {
				t.Fatal(err)
			}
			if err := op.Finish(); err != nil {
				t.Fatalf("operator error: %v", err)
			}
			if bad != nil {
				t.Fatal(bad)
			}
			if cfg.Adaptive && op.Migrations() == 0 {
				t.Fatal("no migrations: the run must probe during one")
			}
			exact.Equal(t, rec.all(), refPairs(pred, tc.tuples))
		})
	}
}
