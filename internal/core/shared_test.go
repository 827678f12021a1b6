package core

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/storage"
)

// TestSharedBlocksPerRow runs a static (4,4) grid in one process and
// checks that the joiners of a grid row (column) store its R (S)
// tuples as views of the same blocks — the reshuffler wrote each
// tuple's columns once — and that the whole operator holds no more
// blocks than the input fills plus one open block per slot and
// reshuffler.
func TestSharedBlocksPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pred := join.EquiJoin("eq", nil)
	tuples := mixedStream(rng, 3000, 3000, 1<<20)
	want := refCount(pred, tuples)
	got, op := runOperator(t, Config{J: 16, Pred: pred, Seed: 3}, tuples)
	if got != want {
		t.Fatalf("emitted %d, reference %d", got, want)
	}
	m := op.cfg.Initial
	if m.N != 4 || m.M != 4 {
		t.Fatalf("mapping %v, want (4,4)", m)
	}
	// blocksOf lists the blocks of one joiner side, in order.
	blocksOf := func(w *joiner, side matrix.Side) []any {
		var out []any
		for _, v := range w.state.Views(side) {
			if v.Sharers == 0 {
				t.Fatalf("joiner %d side %v holds a private block", w.id, side)
			}
			if len(out) == 0 || out[len(out)-1] != v.Block {
				out = append(out, v.Block)
			}
		}
		return out
	}
	distinct := map[any]bool{}
	rows := map[int]map[any]bool{}
	cols := map[int]map[any]bool{}
	for _, w := range op.joiners {
		for side, groups := range map[matrix.Side]map[int]map[any]bool{matrix.SideR: rows, matrix.SideS: cols} {
			key := w.cell.Row
			if side == matrix.SideS {
				key = w.cell.Col
			}
			set := map[any]bool{}
			for _, b := range blocksOf(w, side) {
				set[b] = true
				distinct[b] = true
			}
			if ref, ok := groups[key]; !ok {
				groups[key] = set
			} else if !sameSet(ref, set) {
				t.Fatalf("joiner %d side %v views other blocks than its grid line's first joiner", w.id, side)
			}
		}
	}
	limit := (len(tuples)+511)/512 + (m.N+m.M)*len(op.sources)
	if len(distinct) > limit {
		t.Fatalf("%d distinct blocks for %d input tuples, limit %d", len(distinct), len(tuples), limit)
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
// open shared blocks, which the coordinator encodes while the
// reshufflers keep appending rows past them (the race detector watches
// both). The newest checkpoint must restore and, with the replay log,
// recover the stream exactly.
func TestSharedBlocksCaptureWhileAppending(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pred := join.EquiJoin("eq", nil)
	tuples := mixedStream(rng, 3000, 3000, 400)
	withContent(rng, tuples)
	for i := range tuples {
		if i%3 != 0 {
			// Payload-free tuples between payload-carrying ones: a
			// slot's block opened without a payload column must be
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
	op2.Start()
	if err := op2.ReplayFrom(op.ReplayLog()); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := op2.Finish(); err != nil {
		t.Fatalf("finish restored: %v", err)
	}
	diffMultisets(t, combineCutAndReplay(snap, run1, run2), want)
}

// TestSharedBlocksAcrossMigrationExact runs an adaptive grid through
// several migrations at the default envelope size: new-epoch runs land
// in ∆′ as views of the new slots' shared blocks, finalization adopts
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
	want := refMultiset(pred, tuples, contentOf)
	got, op := runOperatorContent(t, Config{J: 16, Pred: pred, Adaptive: true, Warmup: 400, Seed: 13}, tuples)
	diffMultisets(t, got, want)
	if op.Migrations() == 0 {
		t.Fatal("no migration on a lopsided stream")
	}
	checkMigrationConserved(t, op.Metrics())
	shared := 0
	for _, w := range op.joiners {
		for _, side := range migSides {
			for _, v := range w.state.Views(side) {
				if v.Sharers > 0 {
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

// TestWorkerSharedBlocksPerRow runs a static (4,4) grid on two
// loopback workers and checks, on each worker, that the receive loop
// wrote each frame body once for the joiners it names: the hosted
// joiners of a grid row view the same R blocks, every S block is viewed
// by the worker's two joiners of its column, and no hosted store holds
// a private block.
func TestWorkerSharedBlocksPerRow(t *testing.T) {
	addrs, wait := serveWorkers(t, 2)
	rng := rand.New(rand.NewSource(59))
	pred := join.EquiJoin("eq", nil)
	tuples := mixedStream(rng, 3000, 3000, 1<<20)
	want := refCount(pred, tuples)
	got, op := runOperator(t, Config{J: 16, Pred: pred, Seed: 3, Workers: addrs}, tuples)
	if got != want {
		t.Fatalf("emitted %d, reference %d", got, want)
	}
	if m := op.cfg.Initial; m.N != 4 || m.M != 4 {
		t.Fatalf("mapping %v, want (4,4)", m)
	}
	for i, wop := range wait() {
		rows := map[int]map[any]bool{}
		for _, w := range wop.joiners {
			set := map[any]bool{}
			for _, side := range migSides {
				for _, v := range w.state.Views(side) {
					switch {
					case v.Sharers == 0:
						t.Fatalf("worker %d: joiner %d side %v holds a private block", i, w.id, side)
					case side == matrix.SideS && v.Sharers != 2:
						t.Fatalf("worker %d: joiner %d views an S block of %d sharers, want 2", i, w.id, v.Sharers)
					case side == matrix.SideR && v.Sharers != 4:
						t.Fatalf("worker %d: joiner %d views an R block of %d sharers, want 4", i, w.id, v.Sharers)
					case side == matrix.SideR:
						set[v.Block] = true
					}
				}
			}
			if len(set) == 0 {
				t.Fatalf("worker %d: joiner %d stores no R block", i, w.id)
			}
			if ref, ok := rows[w.cell.Row]; !ok {
				rows[w.cell.Row] = set
			} else if !sameSet(ref, set) {
				t.Fatalf("worker %d: joiner %d views other R blocks than its row's first hosted joiner", i, w.id)
			}
		}
		if len(rows) != 2 {
			t.Fatalf("worker %d hosts joiners of %d rows, want 2 whole rows", i, len(rows))
		}
	}
}

// TestWorkerSharedBlocksExact runs grids on two loopback workers and
// requires the nested-loop multiset by content, payloads included:
// an adaptive run whose migrations move state across the workers, so ∆
// and ∆′ runs arrive with windows of blocks opened for each epoch; an
// envelope size of 1024, past a block, whose frames the joiners copy
// (the zero Window); and an envelope size of 1, whose one-row windows
// extend one view per block.
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
						if v.Sharers > 0 {
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
						if v.Sharers == 0 {
							return
						}
					}
				}
			}
			t.Fatal("no hosted joiner copied a frame body longer than a block")
		}},
		{"batch-1", Config{J: 16, BatchSize: 1, NumReshufflers: 1}, func(t *testing.T, js []*joiner) {
			for _, w := range js {
				for _, side := range migSides {
					views, rows := w.state.Views(side), 0
					for _, v := range views {
						if v.Sharers == 0 {
							t.Fatalf("joiner %d side %v holds a private block", w.id, side)
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
			want := refMultiset(pred, tuples, contentOf)
			cfg := tc.cfg
			cfg.Pred, cfg.Seed, cfg.Workers = pred, 17, addrs
			got, op := runOperatorContentBatch(t, cfg, tuples)
			diffMultisets(t, got, want)
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

// runOperatorContentBatch is runOperatorContent feeding the stream in
// one SendBatch, so envelopes fill to their size before any flush.
func runOperatorContentBatch(t *testing.T, cfg Config, tuples []join.Tuple) (map[pairContent]int, *Operator) {
	t.Helper()
	var got map[pairContent]int
	cfg.EmitBatch, got = contentSink()
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
