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
