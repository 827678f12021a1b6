package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"weak"

	"repro/internal/exact"
	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/storage"
)

// flatRing is the reference a replay ring must match: one flat slice
// and the trimmed-item count, with Trim's and the stop-path undo's
// semantics spelled out on it. A trim clears what it cuts, so the
// reference pins no payload the log has let go.
type flatRing struct {
	base  int64
	items []join.Tuple
}

func (f *flatRing) trim(cut int64) {
	if drop := cut - f.base; drop > 0 {
		k := min(drop, int64(len(f.items)))
		clear(f.items[:k])
		f.items = f.items[k:]
		f.base = cut
	}
}

// logItems builds n items in log order: Key numbers them from next,
// Seq is random (maxSeq must find it anywhere), R and S alternate, and
// each carries a payload of its own 16-byte array, whose weak pointer
// tells whether the log still pins it.
func logItems(rng *rand.Rand, next *int64, n int) []join.Tuple {
	out := make([]join.Tuple, n)
	for i := range out {
		*next++
		out[i] = join.Tuple{Rel: matrix.Side(*next & 1), Key: *next, Size: 8, Seq: rng.Uint64()>>1 + 1, Payload: new([16]byte)[:]}
	}
	return out
}

// ringItems reads ring d's retained items in log order, a few at a time
// as ReplayFrom does.
func ringItems(l *ReplayLog, d int) []join.Tuple {
	var out []join.Tuple
	buf := make([]join.Tuple, 100)
	for {
		n := l.read(d, len(out), buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

// checkRing compares one ring with its reference: Len, the items and
// their order as ringItems reads them, base, and the block shape —
// every block but the newest holds join.WindowRows rows, no block
// holds no item, and the rows the blocks hold add up to Len.
func checkRing(t *testing.T, step int, l *ReplayLog, d int, ref *flatRing) {
	t.Helper()
	rg := &l.rings[d]
	if rg.base != ref.base {
		t.Fatalf("step %d ring %d: base %d, want %d", step, d, rg.base, ref.base)
	}
	got := ringItems(l, d)
	if len(got) != len(ref.items) || rg.log.Len() != len(ref.items) {
		t.Fatalf("step %d ring %d: %d items (Len %d), want %d", step, d, len(got), rg.log.Len(), len(ref.items))
	}
	for i := range got {
		g, w := &got[i], &ref.items[i]
		if g.Key != w.Key || g.Seq != w.Seq || g.Rel != w.Rel || g.Size != w.Size || &g.Payload[0] != &w.Payload[0] {
			t.Fatalf("step %d ring %d: item %d is %d, want %d", step, d, i, g.Key, w.Key)
		}
	}
	views := rg.log.Views()
	rows := 0
	for i, v := range views {
		if v.Lo == v.Hi {
			t.Fatalf("step %d ring %d: block %d of %d holds no item", step, d, i, len(views))
		}
		if i > 0 && v.Lo != 0 {
			t.Fatalf("step %d ring %d: block %d of %d starts at row %d", step, d, i, len(views), v.Lo)
		}
		if i < len(views)-1 && v.Hi != join.WindowRows {
			t.Fatalf("step %d ring %d: block %d of %d holds %d rows, want %d", step, d, i, len(views), v.Hi, join.WindowRows)
		}
		rows += v.Hi - v.Lo
	}
	if rows != len(ref.items) {
		t.Fatalf("step %d ring %d: blocks hold %d rows, want %d", step, d, rows, len(ref.items))
	}
}

// checkReleased fails unless every payload whose weak pointer is in cut
// has become collectable: the log and the reference let go of them.
func checkReleased(t *testing.T, step int, cut []weak.Pointer[[16]byte]) {
	t.Helper()
	runtime.GC()
	for i, wp := range cut {
		if wp.Value() != nil {
			t.Fatalf("step %d: cut payload %d of %d is still reachable", step, i, len(cut))
		}
	}
}

// weakPayloads returns weak pointers to the payloads of about limit
// items: every stride-th and the last.
func weakPayloads(items []join.Tuple, limit int) []weak.Pointer[[16]byte] {
	if len(items) == 0 {
		return nil
	}
	stride := max(1, len(items)/limit)
	var out []weak.Pointer[[16]byte]
	for i := 0; i < len(items); i += stride {
		out = append(out, weak.Make((*[16]byte)(items[i].Payload)))
	}
	return append(out, weak.Make((*[16]byte)(items[len(items)-1].Payload)))
}

// TestReplayLogBlocksMatchFlatReference drives a two-ring replay log
// and a flat-slice reference through the same random history: appends
// of one item up to four blocks' worth, stop-path undos (append, then
// truncate back), and Trims cutting mid-block, on a block boundary,
// past the end and behind the base. Len, the items read back in order,
// maxSeq, base, the block shape and the operator's ReplayLogItems and
// ReplayLogBytes gauges must agree after every step, and no payload a
// Trim or undo cut may stay reachable.
func TestReplayLogBlocksMatchFlatReference(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const rings = 2
	const block = join.WindowRows
	met := new(metrics.Operator)
	l := newReplayLog(rings, met)
	refs := make([]flatRing, rings)
	var next int64
	appendSize := func() int {
		switch rng.Intn(20) {
		case 0:
			return 1 + rng.Intn(4*block)
		case 1, 2, 3:
			return 1
		default:
			return 1 + rng.Intn(3*block/2)
		}
	}
	for step := 0; step < 400; step++ {
		d := rng.Intn(rings)
		rg, ref := &l.rings[d], &refs[d]
		var cut []weak.Pointer[[16]byte]
		switch op := rng.Intn(10); {
		case op < 5:
			items := logItems(rng, &next, appendSize())
			rg.append(items)
			ref.items = append(ref.items, items...)
		case op < 7:
			n0 := rg.log.Len()
			items := logItems(rng, &next, appendSize())
			rg.append(items)
			rg.truncate(n0)
			cut = weakPayloads(items, 16)
			clear(items)
		default:
			cuts := make([]int64, rings)
			for i := range cuts {
				r, f := &l.rings[i], &refs[i]
				var drop int64
				switch rng.Intn(5) {
				case 0: // mid-block
					drop = rng.Int63n(int64(len(f.items)) + 1)
				case 1: // on a block boundary
					if views := r.log.Views(); len(views) > 0 {
						k := rng.Intn(len(views))
						for _, v := range views[:k+1] {
							drop += int64(v.Hi - v.Lo)
						}
					}
				case 2: // past the end
					drop = int64(len(f.items)) + 1 + rng.Int63n(100)
				case 3: // behind the base: a no-op
					drop = -rng.Int63n(f.base + 1)
				default: // exactly the end
					drop = int64(len(f.items))
				}
				cuts[i] = f.base + drop
				if drop > 0 {
					cut = append(cut, weakPayloads(f.items[:min(drop, int64(len(f.items)))], 16)...)
				}
			}
			l.Trim(cuts)
			for i := range refs {
				refs[i].trim(cuts[i])
			}
		}
		if cut != nil {
			checkReleased(t, step, cut)
		}
		total, max := 0, uint64(0)
		var bytes int64
		for i, f := range refs {
			checkRing(t, step, l, i, &refs[i])
			total += len(f.items)
			bytes += l.rings[i].log.Bytes()
			for _, it := range f.items {
				if it.Seq > max {
					max = it.Seq
				}
			}
		}
		if got := l.Len(); got != total {
			t.Fatalf("step %d: Len %d, want %d", step, got, total)
		}
		if got := l.maxSeq(); got != max {
			t.Fatalf("step %d: maxSeq %d, want %d", step, got, max)
		}
		if items, b := met.ReplayLogItems.Load(), met.ReplayLogBytes.Load(); items != int64(total) || b != bytes {
			t.Fatalf("step %d: gauges read %d items in %d bytes, want %d in %d", step, items, b, total, bytes)
		}
	}
}

// TestReplayLogReleasesCutPayloads follows payloads through the ingest
// edge itself: three envelopes pushed into a ring, a Trim that cuts
// the first and a half, and, once the operator stops, a push whose send
// fails and whose append the stop path takes back. Every payload cut by
// the Trim or the undo must become collectable, and every payload the
// log still holds must stay reachable through it alone.
func TestReplayLogReleasesCutPayloads(t *testing.T) {
	const n = 300 // rows per envelope: the Trim cuts within a block
	op := stubRingOperator()
	envelope := func() ([]join.Tuple, []weak.Pointer[[16]byte]) {
		env := getItems(n)
		var wps []weak.Pointer[[16]byte]
		for i := range n {
			p := new([16]byte)
			env = append(env, join.Tuple{Rel: matrix.Side(i & 1), Key: int64(i), Seq: uint64(i + 1), Size: 8, Payload: p[:]})
			wps = append(wps, weak.Make(p))
		}
		return env, wps
	}
	go func() {
		for range 3 {
			putItems(<-op.sources[0])
		}
	}()
	var pushed []weak.Pointer[[16]byte]
	for range 3 {
		env, wps := envelope()
		if err := op.push(0, env); err != nil {
			t.Fatal(err)
		}
		pushed = append(pushed, wps...)
	}
	op.replay.Trim([]int64{3 * n / 2})
	op.runner.Cancel(errors.New("stopped"))
	env, undone := envelope()
	if err := op.push(0, env); err == nil {
		t.Fatal("push on a stopped operator reported delivery")
	}
	if got := op.replay.Len(); got != 3*n-3*n/2 {
		t.Fatalf("log holds %d items, want %d", got, 3*n-3*n/2)
	}
	runtime.GC()
	for i, wp := range append(pushed, undone...) {
		if held := i >= 3*n/2 && i < 3*n; (wp.Value() != nil) != held {
			t.Fatalf("payload %d reachable %v, want %v (%d pushed, %d trimmed, %d undone)", i, wp.Value() != nil, held, 3*n, 3*n/2, n)
		}
	}
	runtime.KeepAlive(op)
}

// TestReplayLogConcurrentTrim runs two feeders appending to one ring —
// each append under the ring mutex, as Operator.push does — while a
// third goroutine trims to cuts behind what has been appended and a
// fourth reads Len, maxSeq and the items. The final log must hold
// exactly the items past the last cut, in append order. Run it under
// -race: it is the block log's concurrency net.
func TestReplayLogConcurrentTrim(t *testing.T) {
	l := newReplayLog(1, new(metrics.Operator))
	rg := &l.rings[0]
	var (
		order    []int64 // keys in log order, appended under rg.mu
		appended atomic.Int64
		next     atomic.Int64
		wg       sync.WaitGroup
	)
	const perFeeder = 20000
	for f := 0; f < 2; f++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for sent := 0; sent < perFeeder; {
				n := min(1+rng.Intn(300), perFeeder-sent)
				items := make([]join.Tuple, n)
				for i := range items {
					k := next.Add(1)
					items[i] = join.Tuple{Key: k, Seq: uint64(k), Payload: []byte{1}}
				}
				rg.mu.Lock()
				rg.append(items)
				for i := range items {
					order = append(order, items[i].Key)
				}
				appended.Add(int64(n))
				rg.mu.Unlock()
				sent += n
			}
		}(int64(f + 1))
	}
	done := make(chan struct{})
	var lastCut atomic.Int64
	var side sync.WaitGroup
	side.Add(2)
	go func() { // trimmer
		defer side.Done()
		rng := rand.New(rand.NewSource(9))
		for {
			select {
			case <-done:
				return
			default:
			}
			if a := appended.Load(); a > lastCut.Load() {
				cut := lastCut.Load() + rng.Int63n(a-lastCut.Load()+1)
				l.Trim([]int64{cut})
				lastCut.Store(cut)
			}
		}
	}()
	go func() { // reader
		defer side.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = l.Len()
			_ = l.maxSeq()
			_ = ringItems(l, 0)
		}
	}()
	wg.Wait()
	close(done)
	side.Wait()

	cut := lastCut.Load()
	want := order[cut:]
	got := ringItems(l, 0)
	if l.Len() != len(want) || len(got) != len(want) {
		t.Fatalf("log holds %d items (Len %d), want %d past cut %d", len(got), l.Len(), len(want), cut)
	}
	for i := range got {
		if got[i].Key != want[i] {
			t.Fatalf("item %d is %d, want %d", i, got[i].Key, want[i])
		}
	}
	if wantMax := slices.Max(append([]int64{0}, want...)); l.maxSeq() != uint64(wantMax) {
		t.Fatalf("maxSeq %d, want %d", l.maxSeq(), wantMax)
	}
	ref := &flatRing{base: cut, items: got}
	checkRing(t, 0, l, 0, ref)
}

// TestReplayLogBytesPerItem is the replay log's footprint budget: 200k
// payload-free items, R and S alternating with Size 8, dealt over two
// rings in source envelopes through the append Operator.push makes.
// The live heap the log adds, after GC, is its blocks: 24 B of key, aux
// and seq per item, a meta column because R and S rows mix, and the
// block header, about 33 B an item, plus the spare blocks of its
// newest groups. Items whose caller set U add a u column, 8 B more. A
// log that keeps 64-byte Tuples fails both budgets.
func TestReplayLogBytesPerItem(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory inflates the heap")
	}
	for _, tc := range []struct {
		name     string
		callerU  bool
		perItem  float64 // budget, live bytes per logged item
		wantCols string
	}{
		{"u-zero", false, 36, "meta"},
		{"caller-u", true, 44, "u and meta"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n, rings = 200_000, 2
			items := make([]join.Tuple, n)
			for i := range items {
				items[i] = join.Tuple{Rel: matrix.Side(i & 1), Key: int64(i) * 7919, Aux: int64(i), Size: 8, Seq: uint64(i + 1)}
				if tc.callerU {
					items[i].U = join.UMix(uint64(i), 77) | 1
				}
			}
			env := make([][]join.Tuple, rings)
			for d := range env {
				env[d] = make([]join.Tuple, 0, sourceBurst)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&before)

			met := new(metrics.Operator)
			l := newReplayLog(rings, met)
			ship := func(d int) {
				rg := &l.rings[d]
				rg.mu.Lock()
				rg.append(env[d])
				rg.mu.Unlock()
				env[d] = env[d][:0]
			}
			for i := range items {
				d := dealTarget(items[i].Seq, rings)
				if env[d] = append(env[d], items[i]); len(env[d]) == sourceBurst {
					ship(d)
				}
			}
			for d := range env {
				ship(d)
			}

			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&after)
			live := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
			gauge := float64(met.ReplayLogBytes.Load()) / n
			t.Logf("%d items over %d rings: %.1f B live per item (gauge %.1f B, %s columns)", n, rings, live, gauge, tc.wantCols)
			if got := l.Len(); got != n || met.ReplayLogItems.Load() != n {
				t.Fatalf("log holds %d items (gauge %d), want %d", got, met.ReplayLogItems.Load(), n)
			}
			if live > tc.perItem {
				t.Fatalf("log holds %.1f B per item live, budget %.0f", live, tc.perItem)
			}
			if gauge > tc.perItem || live > 1.05*gauge {
				t.Fatalf("ReplayLogBytes reads %.1f B per item against %.1f live", gauge, live)
			}
			runtime.KeepAlive(items)
			runtime.KeepAlive(l)
		})
	}
}

// TestReplayLogPayloadsRestoreExact is a crash/restore/replay drill
// whose tuples carry nil, empty and non-empty payloads, some with a
// caller-set U: the log keeps a payload column only where one is
// needed and a u column for the caller's values, and replay must bring
// back every tuple as it was sent. The recovered output must be the
// nested-loop oracle, every logged item must read back with its U and
// its payload's bytes and nilness, and so must every replayed member of
// a pair the restored operator emits. The replay-log gauges must agree
// with the log.
func TestReplayLogPayloadsRestoreExact(t *testing.T) {
	reshufflerCases(t, 4, func(t *testing.T, numRe int) {
		rng := rand.New(rand.NewSource(67))
		pred := join.EquiJoin("eq", nil)
		tuples := mixedStream(rng, 1200, 1200, 47)
		for i := range tuples {
			switch i % 3 {
			case 1:
				tuples[i].Payload = []byte{}
			case 2:
				tuples[i].Payload = []byte(fmt.Sprintf("p%d", i))
			}
			if i%5 == 0 {
				tuples[i].U = rng.Uint64() | 1
			}
		}
		stampSeqs(tuples, 0)
		want := refPairs(pred, tuples)
		bySeq := make(map[uint64]*join.Tuple, len(tuples))
		for i := range tuples {
			bySeq[tuples[i].Seq] = &tuples[i]
		}
		same := func(got *join.Tuple) bool {
			w := bySeq[got.Seq]
			return w != nil && (got.Payload == nil) == (w.Payload == nil) && string(got.Payload) == string(w.Payload) &&
				(w.U == 0 || got.U == w.U)
		}

		backend := storage.NewMemBackend()
		run1 := newShardRecorder(64)
		op := mustOperator(t, Config{J: 4, Pred: pred, Seed: 23, Backend: backend, EmitShard: run1.emit, NumReshufflers: numRe})
		op.Start()
		ckptAt, crashAt := 2*len(tuples)/5, 4*len(tuples)/5
		sendAll(t, op, tuples[:ckptAt])
		if err := op.Checkpoint(); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		sendAll(t, op, tuples[ckptAt:crashAt])
		op.runner.Cancel(errors.New("crash"))
		_ = op.Finish() // the crash is the expected error

		log := op.ReplayLog()
		logged := make(map[uint64]bool)
		for d := range log.rings {
			for _, it := range ringItems(log, d) {
				if !same(&it) {
					t.Fatalf("logged item seq %d reads back as %+v, sent as %+v", it.Seq, it, *bySeq[it.Seq])
				}
				logged[it.Seq] = true
			}
		}
		if len(logged) < crashAt-ckptAt {
			t.Fatalf("log retains %d items, want at least the %d sent past the checkpoint", len(logged), crashAt-ckptAt)
		}
		met := op.Metrics()
		var bytes int64
		for d := range log.rings {
			bytes += log.rings[d].log.Bytes()
		}
		if met.ReplayLogItems.Load() != int64(log.Len()) || met.ReplayLogBytes.Load() != bytes {
			t.Fatalf("gauges read %d items in %d bytes, log holds %d in %d",
				met.ReplayLogItems.Load(), met.ReplayLogBytes.Load(), log.Len(), bytes)
		}

		snap := latestSnapshot(t, backend)
		run2 := newShardRecorder(64)
		replayed := make([][]join.Pair, 64) // run2's pairs per shard, whose members' columns are checked below
		op2, err := RestoreOperator(Config{Pred: pred, Backend: backend, EmitShard: func(shard int, ps []join.Pair) {
			run2.emit(shard, ps)
			replayed[shard] = append(replayed[shard], ps...)
		}}, snap)
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		op2.Start()
		if err := op2.ReplayFrom(log); err != nil {
			t.Fatalf("replay: %v", err)
		}
		sendAll(t, op2, tuples[crashAt:]) // Send stamps the seqs they were given
		if err := op2.Finish(); err != nil {
			t.Fatalf("finish restored: %v", err)
		}
		exact.Equal(t, combineCutAndReplay(snap, run1, run2), want)

		var kinds [3]int // replayed pair members with a nil, an empty and a non-empty payload
		for _, ps := range replayed {
			for _, p := range ps {
				for _, m := range []*join.Tuple{&p.R, &p.S} {
					if !logged[m.Seq] {
						continue
					}
					if !same(m) {
						t.Fatalf("replayed seq %d emitted as %+v, sent as %+v", m.Seq, *m, *bySeq[m.Seq])
					}
					switch {
					case m.Payload == nil:
						kinds[0]++
					case len(m.Payload) == 0:
						kinds[1]++
					default:
						kinds[2]++
					}
				}
			}
		}
		if kinds[0] == 0 || kinds[1] == 0 || kinds[2] == 0 {
			t.Fatalf("replayed pair members by payload (nil, empty, bytes): %v; want each kind", kinds)
		}
	})
}
