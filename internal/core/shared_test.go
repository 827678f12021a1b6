package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/exact"
	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/storage"
)

// TestSharedBlocksPerRow runs grids in one process and checks that
// every store holds only views of blocks a writer wrote, that the
// joiners of a grid row (column) store its R (S) tuples as views of
// the same blocks — the line's writer wrote each tuple's columns once —
// and that the whole operator holds no more blocks than the input
// fills plus one per line and reshuffler (each line's open block, and
// the rows a run left unused when it did not fit a block's rest). It
// covers a (4,4) equi-join, a (16,1) grid whose row lines have one
// reader each, a theta predicate, whose scan-indexed stores view
// windows as hash stores do, and the hash route, whose lines have one
// reader each.
func TestSharedBlocksPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tuples := mixedStream(rng, 3000, 3000, 1<<20)
	for _, tc := range sharedBlockCases() {
		t.Run(tc.name, func(t *testing.T) {
			want := stampedPairs(tc.cfg.Pred, tuples)
			cfg := tc.cfg
			cfg.Seed = 3
			var got [][2]uint64
			var op *Operator
			if tc.hashed {
				got, op = runSHJ(t, cfg, tuples)
			} else {
				got, op = runOperator(t, cfg, tuples)
			}
			exact.Equal(t, got, want)
			if m := op.cfg.Initial; !tc.hashed && m != tc.cfg.Initial {
				t.Fatalf("mapping %v, want %v", m, tc.cfg.Initial)
			}
			distinct := checkLineBlocks(t, "", op.joiners, tc.hashed, nil)
			slots := op.cfg.Initial.N + op.cfg.Initial.M
			if tc.hashed {
				slots = 2 * op.cfg.J
			}
			if limit := (len(tuples)+511)/512 + slots*len(op.sources); distinct > limit {
				t.Fatalf("%d distinct blocks for %d input tuples, limit %d", distinct, len(tuples), limit)
			}
		})
	}
}

// sharedBlockCase is one operator shape TestSharedBlocksPerRow and its
// worker twin run: the hash route when hashed, else the grid cfg names.
type sharedBlockCase struct {
	name   string
	cfg    Config
	hashed bool
}

func sharedBlockCases() []sharedBlockCase {
	eq := join.EquiJoin("eq", nil)
	near := join.ThetaJoin("near", func(r, s join.Tuple) bool { d := r.Key - s.Key; return d >= 0 && d < 1<<10 })
	return []sharedBlockCase{
		{"equi-4x4", Config{J: 16, Pred: eq, Initial: matrix.Mapping{N: 4, M: 4}}, false},
		{"equi-16x1", Config{J: 16, Pred: eq, Initial: matrix.Mapping{N: 16, M: 1}}, false},
		{"theta-4x4", Config{J: 16, Pred: near, Initial: matrix.Mapping{N: 4, M: 4}}, false},
		{"hash-route", Config{J: 16, Pred: eq}, true},
	}
}

// runSHJ is runOperator on the hash route.
func runSHJ(t *testing.T, cfg Config, tuples []join.Tuple) ([][2]uint64, *Operator) {
	t.Helper()
	var got *[][2]uint64
	cfg.EmitBatch, got = keySink(ckptKey, 0)
	op := mustSHJ(t, cfg)
	op.Start()
	sendAll(t, op, tuples)
	if err := op.Finish(); err != nil {
		t.Fatalf("operator error: %v", err)
	}
	return *got, op
}

// checkLineBlocks requires every store of js to view only blocks a
// writer wrote (Sharers >= 1) — of the fan-out sharers names for the
// side, when it is set — and the joiners of one grid row (column) to
// view the same R (S) blocks; on the hash route every joiner is a line
// of its own. It returns how many distinct blocks the stores view.
func checkLineBlocks(t *testing.T, label string, js []*joiner, hashed bool, sharers func(w *joiner, side matrix.Side) int) int {
	t.Helper()
	distinct := map[any]bool{}
	lines := [2]map[int]map[any]bool{{}, {}}
	for _, w := range js {
		for _, side := range migSides {
			set := map[any]bool{}
			for _, v := range w.state.Views(side) {
				if v.Sharers < 1 {
					t.Fatalf("%sjoiner %d side %v views a block no writer wrote", label, w.id, side)
				}
				if sharers != nil && v.Sharers != sharers(w, side) {
					t.Fatalf("%sjoiner %d side %v views a block of %d sharers, want %d", label, w.id, side, v.Sharers, sharers(w, side))
				}
				set[v.Block] = true
				distinct[v.Block] = true
			}
			if len(set) == 0 {
				t.Fatalf("%sjoiner %d side %v stores no block", label, w.id, side)
			}
			line := w.id
			switch {
			case hashed:
			case side == matrix.SideR:
				line = w.cell.Row
			default:
				line = w.cell.Col
			}
			if ref, ok := lines[side][line]; !ok {
				lines[side][line] = set
			} else if !sameSet(ref, set) {
				t.Fatalf("%sjoiner %d side %v views other blocks than its grid line's first joiner", label, w.id, side)
			}
		}
	}
	return len(distinct)
}

// TestSharedIndexPerRow runs a static (4,4) grid in one process on 1,
// 2, 4 and 8 reshufflers and checks that the joiners of a grid row
// (column) read one slot index for their R (S) side — the line's, the
// same across the row, still live — and keep an empty own index:
// each replicated tuple was indexed once, by the line's writer,
// whichever reshuffler shipped it.
func TestSharedIndexPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	pred := join.EquiJoin("eq", nil)
	tuples := mixedStream(rng, 3000, 3000, 1<<20)
	want := stampedPairs(pred, tuples)
	for _, numRe := range []int{1, 2, 4, 8} {
		got, op := runOperator(t, Config{J: 16, Pred: pred, Seed: 3, NumReshufflers: numRe}, tuples)
		if msg := exact.Diff(got, want); msg != "" {
			t.Fatalf("%d reshufflers: %s", numRe, msg)
		}
		if m := op.cfg.Initial; m.N != 4 || m.M != 4 {
			t.Fatalf("mapping %v, want (4,4)", m)
		}
		checkSharedIndexes(t, fmt.Sprintf("%d reshufflers: ", numRe), op.joiners)
	}
}

// TestSharedIndexAcrossCheckpoints runs a (4,4) grid on two reshufflers
// that checkpoints every 1000 tuples while the stream flows. The
// barrier must keep each line's window order consistent with the cut
// (ckptBuild.allCut): a joiner that got one reshuffler's post-barrier window
// ahead of another's pre-barrier window of the same line would freeze
// its segment and index the rest of the line itself. After Finish every
// joiner must still read one live segment per side over an empty own
// index, and the output must equal the oracle's.
func TestSharedIndexAcrossCheckpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	pred := join.EquiJoin("eq", nil)
	tuples := mixedStream(rng, 6000, 6000, 1<<20)
	withDenseStretch(rng, tuples, 5000, 6200)
	want := stampedPairs(pred, tuples)
	got, op := runOperator(t, Config{J: 16, Pred: pred, Seed: 3, NumReshufflers: 2,
		Backend: storage.NewMemBackend(), CheckpointEvery: 1000}, tuples)
	exact.Equal(t, got, want)
	if n := op.Metrics().Checkpoints.Load(); n < 2 {
		t.Fatalf("%d checkpoints committed, want at least 2", n)
	}
	checkSharedIndexes(t, "", op.joiners)
}

// withDenseStretch redraws the keys of ts[from:to] from 32 keys, so
// that the stretch's probes match tens of stored rows each and joiners
// ship runs of many pairs, which the sparse stream around it, at a few
// dozen pairs in all, never does: a pair a flush drops or repeats then
// shows in the pair multiset.
func withDenseStretch(rng *rand.Rand, ts []join.Tuple, from, to int) {
	for i := from; i < to; i++ {
		ts[i].Key = rng.Int63n(32)
	}
}

// checkSharedIndexes requires every joiner of js to read one live
// segment per side — its line's — and index nothing itself, and the
// joiners of one grid row (column) to read the same R (S) index.
func checkSharedIndexes(t *testing.T, label string, js []*joiner) {
	t.Helper()
	lines := [2]map[int]map[any]bool{{}, {}}
	for _, w := range js {
		for _, side := range migSides {
			v := w.state.Segments(side)
			if len(v.Indexes) != 1 || v.Live != 1 || v.Keys != 0 {
				t.Fatalf("%sjoiner %d side %v reads %d segments (%d live) over an own index of %d keys, want one live over none",
					label, w.id, side, len(v.Indexes), v.Live, v.Keys)
			}
			set := map[any]bool{}
			for _, ix := range v.Indexes {
				set[ix] = true
			}
			line := w.cell.Row
			if side == matrix.SideS {
				line = w.cell.Col
			}
			if ref, ok := lines[side][line]; !ok {
				lines[side][line] = set
			} else if !sameSet(ref, set) {
				t.Fatalf("%sjoiner %d side %v reads other indexes than its grid line's first joiner", label, w.id, side)
			}
		}
	}
}

func sameSet(a, b map[any]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TestSharedBlocksCaptureWhileAppending takes checkpoints while one
// feeder keeps sending: each capture holds views of the reshufflers'
// open shared blocks, which the coordinator collects into the
// checkpoint's block table and encodes, table entries and references,
// while the reshufflers keep appending rows past the captured hi (the
// race detector watches both). The newest checkpoint must restore with
// its row-mates viewing shared blocks again (checkRestoredSharing) and,
// with the replay log, recover the stream exactly.
func TestSharedBlocksCaptureWhileAppending(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pred := join.EquiJoin("eq", nil)
	tuples := mixedStream(rng, 3000, 3000, 400)
	withContent(rng, tuples)
	for i := range tuples {
		if i%3 != 0 {
			// Payload-free tuples between payload-carrying ones: a
			// line's block opened without a payload column must be
			// sealed by the first payload that follows a published
			// window.
			tuples[i].Payload = nil
		}
	}
	want := refPairs(pred, tuples)

	backend := storage.NewMemBackend()
	run1 := newShardRecorder(16)
	op := mustOperator(t, Config{J: 16, Pred: pred, Seed: 5, Backend: backend, EmitShard: run1.emit})
	op.Start()
	fed := make(chan error, 1)
	go func() {
		for i := range tuples {
			if err := op.Send(tuples[i]); err != nil {
				fed <- err
				return
			}
		}
		fed <- nil
	}()
	for c := 1; c <= 4; c++ {
		for op.seq.Load() < uint64(c*len(tuples)/6) {
			runtime.Gosched()
		}
		if err := op.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", c, err)
		}
	}
	if err := <-fed; err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := op.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}

	snap := latestSnapshot(t, backend)
	run2 := newShardRecorder(16)
	op2, err := RestoreOperator(Config{Pred: pred, Backend: backend, EmitShard: run2.emit}, snap)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	checkRestoredSharing(t, op2.joiners, 0.75)
	op2.Start()
	if err := op2.ReplayFrom(op.ReplayLog()); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := op2.Finish(); err != nil {
		t.Fatalf("finish restored: %v", err)
	}
	exact.Equal(t, combineCutAndReplay(snap, run1, run2), want)
}

// TestSharedBlocksAcrossMigrationExact runs an adaptive grid through
// several migrations at the default envelope size: new-epoch runs land
// in ∆′ as views of the new lines' shared blocks, finalization adopts
// them into the state with MergeFrom, and later windows of the same
// blocks extend the adopted views. The output must be the nested-loop
// multiset by content, payloads included, and the final state must
// still hold shared views.
func TestSharedBlocksAcrossMigrationExact(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	pred := join.EquiJoin("eq", nil)
	// One R tuple in twenty, interleaved: the grid moves toward (1,16),
	// and R tuples keep arriving after the last step, into the row's
	// shared blocks.
	tuples := make([]join.Tuple, 6300)
	for i := range tuples {
		rel := matrix.SideS
		if rng.Intn(21) == 0 {
			rel = matrix.SideR
		}
		tuples[i] = join.Tuple{Rel: rel, Key: rng.Int63n(60), Size: 8}
	}
	withContent(rng, tuples)
	want := wantPairs(pred, tuples, contentOf)
	op := runContentExact(t, Config{J: 16, Pred: pred, Adaptive: true, Warmup: 400, Seed: 13}, tuples, want)
	if op.Migrations() == 0 {
		t.Fatal("no migration on a lopsided stream")
	}
	checkMigrationConserved(t, op.Metrics())
	shared := 0
	for _, w := range op.joiners {
		for _, side := range migSides {
			for _, v := range w.state.Views(side) {
				if v.Sharers > 1 {
					shared++
				}
			}
		}
	}
	if shared == 0 {
		t.Fatal("no joiner holds a shared view after the migrations")
	}
}

// TestResidentGaugeMatchesHeap holds the operator-wide resident gauge
// — every joiner's arena and directory bytes, shared blocks charged
// once across their sharers — to the live heap a (4,4) run actually
// grew by.
func TestResidentGaugeMatchesHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory inflates the heap")
	}
	rng := rand.New(rand.NewSource(53))
	pred := join.EquiJoin("eq", nil)
	tuples := mixedStream(rng, 100_000, 100_000, 1<<40)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)

	var n atomic.Int64
	op := mustOperator(t, Config{J: 16, Pred: pred, Seed: 9, EmitBatch: counter(&n)})
	op.Start()
	if err := op.SendBatch(tuples); err != nil {
		t.Fatal(err)
	}
	if err := op.Finish(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)

	m := op.Metrics()
	var gauge, stored int64
	for j := 0; j < 16; j++ {
		js := m.JoinerStats(j)
		gauge += js.ArenaBytes.Load() + js.DirectoryBytes.Load()
		stored += js.StoredTuples.Load()
	}
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("gauge %.1f MB, heap grew %.1f MB: %.1f and %.1f B per stored replica",
		float64(gauge)/1e6, float64(grown)/1e6, float64(gauge)/float64(stored), float64(grown)/float64(stored))
	if d := float64(gauge-grown) / float64(grown); d < -0.15 || d > 0.15 {
		t.Fatalf("resident gauge %d B is %.0f%% off the heap growth %d B", gauge, 100*d, grown)
	}
	runtime.KeepAlive(op)
	runtime.KeepAlive(tuples)
}

// TestWorkerSharedBlocksPerRow runs TestSharedBlocksPerRow's equi
// grids on two loopback workers (workers take neither the hash route
// nor a theta predicate, which does not serialize) and
// checks, on each worker, that the receive loop wrote each frame body
// once for the joiners it names: every hosted store views only blocks
// written for as many joiners as the worker hosts of its grid line, and
// the hosted joiners of a row (column) view the same R (S) blocks.
func TestWorkerSharedBlocksPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	tuples := mixedStream(rng, 3000, 3000, 1<<20)
	withDenseStretch(rng, tuples, 2500, 3100)
	for _, tc := range sharedBlockCases() {
		if tc.hashed || tc.cfg.Pred.Kind != join.Equi {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			addrs, wait := serveWorkers(t, 2)
			want := stampedPairs(tc.cfg.Pred, tuples)
			cfg := tc.cfg
			cfg.Seed, cfg.Workers = 3, addrs
			got, op := runOperator(t, cfg, tuples)
			exact.Equal(t, got, want)
			if m := op.cfg.Initial; m != tc.cfg.Initial {
				t.Fatalf("mapping %v, want %v", m, tc.cfg.Initial)
			}
			for i, wop := range wait() {
				// hosted counts the worker's joiners per row and column.
				hosted := [2]map[int]int{{}, {}}
				for _, w := range wop.joiners {
					hosted[matrix.SideR][w.cell.Row]++
					hosted[matrix.SideS][w.cell.Col]++
				}
				checkLineBlocks(t, fmt.Sprintf("worker %d: ", i), wop.joiners, false, func(w *joiner, side matrix.Side) int {
					if side == matrix.SideR {
						return hosted[side][w.cell.Row]
					}
					return hosted[side][w.cell.Col]
				})
			}
		})
	}
}

// TestWorkerSharedIndexPerRow is TestSharedIndexPerRow on two loopback
// workers: a worker's receive loop indexes each frame body once, in the
// slot index of the frame's line, whichever of the two reshufflers sent
// it, and the hosted joiners the frame names read that one index
// instead of their own directories.
func TestWorkerSharedIndexPerRow(t *testing.T) {
	addrs, wait := serveWorkers(t, 2)
	rng := rand.New(rand.NewSource(79))
	pred := join.EquiJoin("eq", nil)
	tuples := mixedStream(rng, 3000, 3000, 1<<20)
	withDenseStretch(rng, tuples, 2500, 3100)
	want := stampedPairs(pred, tuples)
	got, _ := runOperator(t, Config{J: 16, Pred: pred, Seed: 3, NumReshufflers: 2, Workers: addrs}, tuples)
	exact.Equal(t, got, want)
	for i, wop := range wait() {
		checkSharedIndexes(t, fmt.Sprintf("worker %d: ", i), wop.joiners)
	}
}

// TestWorkerSharedIndexLongFrames is TestWorkerSharedIndexPerRow with
// a batch size of 1024, past a block: the reshufflers cap every
// envelope at a block (join.WindowRows), remote-only lines included, so
// each frame body is one window of its worker line and every hosted
// joiner still reads one live segment per side over an empty own index.
func TestWorkerSharedIndexLongFrames(t *testing.T) {
	addrs, wait := serveWorkers(t, 2)
	rng := rand.New(rand.NewSource(89))
	pred := join.EquiJoin("eq", nil)
	tuples := mixedStream(rng, 10000, 10000, 1<<20)
	want := stampedPairs(pred, tuples)
	emit, got := keySink(ckptKey, 0)
	op := mustOperator(t, Config{J: 16, Pred: pred, Seed: 3, NumReshufflers: 2, BatchSize: 1024, Workers: addrs, EmitBatch: emit})
	op.Start()
	if err := op.SendBatch(tuples); err != nil {
		t.Fatal(err)
	}
	if err := op.Finish(); err != nil {
		t.Fatalf("operator error: %v", err)
	}
	exact.Equal(t, *got, want)
	for i, wop := range wait() {
		checkSharedIndexes(t, fmt.Sprintf("worker %d: ", i), wop.joiners)
	}
}

// TestWorkerDropsStaleFrameSlots runs an adaptive grid whose migrations
// move state across two loopback workers while data keeps arriving,
// and checks that afterwards each worker holds shared-block writers
// only for slots of the newest epoch its frames carried: an older
// epoch's open blocks and slot indexes are dropped when the first frame
// of a newer one arrives.
func TestWorkerDropsStaleFrameSlots(t *testing.T) {
	addrs, wait := serveWorkers(t, 2)
	rng := rand.New(rand.NewSource(83))
	pred := join.EquiJoin("eq", nil)
	// One R tuple in twenty, interleaved: the grid moves toward (1,16)
	// early, and both sides keep arriving in the later epochs.
	tuples := make([]join.Tuple, 6300)
	for i := range tuples {
		rel := matrix.SideS
		if rng.Intn(21) == 0 {
			rel = matrix.SideR
		}
		tuples[i] = join.Tuple{Rel: rel, Key: rng.Int63n(60), Size: 8}
	}
	withContent(rng, tuples)
	want := wantPairs(pred, tuples, contentOf)
	op := runContentExact(t, Config{J: 16, Pred: pred, Adaptive: true, Warmup: 400, Seed: 13, Workers: addrs}, tuples, want)
	if op.Migrations() == 0 {
		t.Fatal("no migrations: the run must change epochs")
	}
	newer := false
	for i, wop := range wait() {
		newer = newer || wop.frameEpoch > 0
		for k, b := range wop.frameBlocks {
			if b.epoch != wop.frameEpoch {
				t.Fatalf("worker %d keeps slot %+v of epoch %d past epoch %d", i, k, b.epoch, wop.frameEpoch)
			}
		}
	}
	if !newer {
		t.Fatal("no worker saw a data frame of a later epoch")
	}
}

// TestWorkerSharedBlocksExact runs grids on two loopback workers and
// requires the nested-loop multiset by content, payloads included:
// an adaptive run whose migrations move state across the workers, so ∆
// and ∆′ runs arrive with windows of blocks opened for each epoch; an
// envelope size of 1024, past a block, which the reshuffler caps at a
// block so that every frame body is a window no joiner copies; and an
// envelope size of 1, whose one-row windows extend one view per block.
func TestWorkerSharedBlocksExact(t *testing.T) {
	pred := join.EquiJoin("dist", nil)
	for _, tc := range []struct {
		name string
		cfg  Config
		// check inspects a worker's hosted joiners after the run.
		check func(t *testing.T, js []*joiner)
	}{
		{"adaptive", Config{J: 16, Adaptive: true, Warmup: 400}, func(t *testing.T, js []*joiner) {
			for _, w := range js {
				for _, side := range migSides {
					for _, v := range w.state.Views(side) {
						if v.Sharers > 1 {
							return
						}
					}
				}
			}
			t.Fatal("no hosted joiner holds a shared view after the migrations")
		}},
		{"batch-1024", Config{J: 16, BatchSize: 1024, NumReshufflers: 1}, func(t *testing.T, js []*joiner) {
			for _, w := range js {
				for _, side := range migSides {
					for _, v := range w.state.Views(side) {
						// On (4,4) every frame names two or four hosted
						// joiners: a block written for one is a store's
						// own copy.
						if v.Sharers == 1 {
							t.Fatalf("joiner %d side %v copied a frame body into its own block", w.id, side)
						}
					}
				}
			}
		}},
		{"batch-1", Config{J: 16, BatchSize: 1, NumReshufflers: 1}, func(t *testing.T, js []*joiner) {
			for _, w := range js {
				for _, side := range migSides {
					views, rows := w.state.Views(side), 0
					for _, v := range views {
						if v.Sharers < 1 {
							t.Fatalf("joiner %d side %v views a block no writer wrote", w.id, side)
						}
						rows += v.Hi - v.Lo
					}
					if limit := (rows+511)/512 + 1; len(views) > limit {
						t.Fatalf("joiner %d side %v: %d views for %d rows, want at most %d", w.id, side, len(views), rows, limit)
					}
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addrs, wait := serveWorkers(t, 2)
			rng := rand.New(rand.NewSource(61))
			tuples := lopsidedStream(rng)
			want := wantPairs(pred, tuples, contentOf)
			cfg := tc.cfg
			cfg.Pred, cfg.Seed, cfg.Workers = pred, 17, addrs
			op := runContentBatchExact(t, cfg, tuples, want)
			if cfg.Adaptive && op.Migrations() == 0 {
				t.Fatal("no migrations: the run must move state across the workers")
			}
			var js []*joiner
			for _, wop := range wait() {
				js = append(js, wop.joiners...)
			}
			tc.check(t, js)
		})
	}
}

// TestWorkerResidentGaugeMatchesHeap is TestResidentGaugeMatchesHeap
// with the joiners on two loopback workers, which run in this process:
// the workers' resident gauges — a block their receive loops wrote
// charged once across the joiners viewing it — must match the live
// heap the run grew by.
func TestWorkerResidentGaugeMatchesHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory inflates the heap")
	}
	addrs, wait := serveWorkers(t, 2)
	rng := rand.New(rand.NewSource(67))
	pred := join.EquiJoin("eq", nil)
	tuples := mixedStream(rng, 100_000, 100_000, 1<<40)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)

	var n atomic.Int64
	op := mustOperator(t, Config{J: 16, Pred: pred, Seed: 9, EmitBatch: counter(&n), Workers: addrs})
	op.Start()
	if err := op.SendBatch(tuples); err != nil {
		t.Fatal(err)
	}
	if err := op.Finish(); err != nil {
		t.Fatal(err)
	}
	wops := wait()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)

	var gauge, stored int64
	for _, wop := range wops {
		m := wop.Metrics()
		for _, w := range wop.joiners {
			js := m.JoinerStats(w.id)
			gauge += js.ArenaBytes.Load() + js.DirectoryBytes.Load()
			stored += js.StoredTuples.Load()
		}
	}
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("gauge %.1f MB, heap grew %.1f MB: %.1f and %.1f B per stored replica",
		float64(gauge)/1e6, float64(grown)/1e6, float64(gauge)/float64(stored), float64(grown)/float64(stored))
	if d := float64(gauge-grown) / float64(grown); d < -0.15 || d > 0.15 {
		t.Fatalf("resident gauge %d B is %.0f%% off the heap growth %d B", gauge, 100*d, grown)
	}
	runtime.KeepAlive(op)
	runtime.KeepAlive(wops)
	runtime.KeepAlive(tuples)
}

// TestSharedBlocksPacked ships envelopes of 100 tuples, which do not
// divide a block, through the lines of a (4,4) grid written by two
// reshufflers, in one process and on two loopback workers (whose
// receive loops write each frame line's blocks). A line's writer puts
// what the open block can take of each body into it and the rest at
// the head of a fresh block (join.BlockWriter.AppendPacked), so every
// block a joiner views but the last — its line's open block — holds a
// block's rows. The output must be the nested-loop multiset by
// content, payloads included.
func TestSharedBlocksPacked(t *testing.T) {
	pred := join.EquiJoin("eq", nil)
	rng := rand.New(rand.NewSource(101))
	tuples := mixedStream(rng, 4000, 4000, 4000)
	withContent(rng, tuples)
	want := wantPairs(pred, tuples, contentOf)
	cfg := Config{J: 16, Pred: pred, Initial: matrix.Mapping{N: 4, M: 4}, NumReshufflers: 2, BatchSize: 100, Seed: 7}
	t.Run("in-process", func(t *testing.T) {
		op := runContentBatchExact(t, cfg, tuples, want)
		checkPackedBlocks(t, "", op.joiners)
	})
	t.Run("workers", func(t *testing.T) {
		addrs, wait := serveWorkers(t, 2)
		cfg := cfg
		cfg.Workers = addrs
		runContentBatchExact(t, cfg, tuples, want)
		for i, wop := range wait() {
			checkPackedBlocks(t, fmt.Sprintf("worker %d: ", i), wop.joiners)
		}
	})
}

// TestWorkerEmptyPayloadStretches feeds alternating stretches of 1 500
// tuples with empty payloads and with payload bytes through two
// loopback workers. A frame of empty payloads must open its line's
// block with a payload column, as in process, so every block but a
// line's open one still holds a block's rows; and every sink must see
// the nil or empty payloads an in-process sink sees.
func TestWorkerEmptyPayloadStretches(t *testing.T) {
	pred := join.EquiJoin("eq", nil)
	rng := rand.New(rand.NewSource(65))
	tuples := mixedStream(rng, 6000, 6000, 3000)
	for i := range tuples {
		tuples[i].Aux = int64(i)
		tuples[i].Payload = []byte{}
		if i/1500%2 == 1 {
			tuples[i].Payload = []byte{byte(i), byte(i >> 8)}
		}
	}
	stampSeqs(tuples, 0)
	// nilness maps each pair, by its tuples' Aux, to whether its R and
	// S payloads are nil.
	run := func(cfg Config) (map[[2]int64][2]bool, *Operator) {
		var mu sync.Mutex
		got := map[[2]int64][2]bool{}
		cfg.EmitBatch = func(ps []join.Pair) {
			mu.Lock()
			defer mu.Unlock()
			for _, p := range ps {
				got[[2]int64{p.R.Aux, p.S.Aux}] = [2]bool{p.R.Payload == nil, p.S.Payload == nil}
			}
		}
		op := mustOperator(t, cfg)
		op.Start()
		if err := op.SendBatch(tuples); err != nil {
			t.Fatal(err)
		}
		if err := op.Finish(); err != nil {
			t.Fatalf("operator error: %v", err)
		}
		return got, op
	}
	// One reshuffler: every line's frames arrive in stream order, so a
	// block opened by a stretch of empty payloads meets the next
	// stretch's payloads before it fills.
	cfg := Config{J: 16, Pred: pred, Initial: matrix.Mapping{N: 4, M: 4}, NumReshufflers: 1, BatchSize: 100, Seed: 7}
	want, op := run(cfg)
	checkPackedBlocks(t, "", op.joiners)
	addrs, wait := serveWorkers(t, 2)
	cfg.Workers = addrs
	got, _ := run(cfg)
	for i, wop := range wait() {
		checkPackedBlocks(t, fmt.Sprintf("worker %d: ", i), wop.joiners)
	}
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("workers emitted %d pairs, in process %d", len(got), len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			t.Fatalf("pair %v: payloads nil %v over workers, %v in process", k, g, w)
		}
	}
}

// checkPackedBlocks requires every block a store of js views, but the
// block of its last view, to hold join.WindowRows rows across the
// store's views of it.
func checkPackedBlocks(t *testing.T, label string, js []*joiner) {
	t.Helper()
	for _, w := range js {
		for _, side := range migSides {
			views := w.state.Views(side)
			if len(views) == 0 {
				t.Fatalf("%sjoiner %d side %v stores no block", label, w.id, side)
			}
			rows := map[any]int{}
			for _, v := range views {
				rows[v.Block] += v.Hi - v.Lo
			}
			open := views[len(views)-1].Block
			for _, v := range views {
				if n := rows[v.Block]; v.Block != open && n != join.WindowRows {
					t.Fatalf("%sjoiner %d side %v: a block of its line holds %d rows, want %d (%d blocks)",
						label, w.id, side, n, join.WindowRows, len(rows))
				}
			}
		}
	}
}
