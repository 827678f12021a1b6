package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/exact"
	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/storage"
)

// ckptKey identifies one result pair by the sequence numbers of its
// members — unique per (r, s) combination, so multisets of keys detect
// both lost and duplicated pairs.
func ckptKey(r, s *join.Tuple) [2]uint64 { return [2]uint64{r.Seq, s.Seq} }

// shardRecorder is a sharded sink that keeps every emitted pair's
// ckptKey per shard, in emission order — the per-shard order is what
// lets a test truncate a shard's output to a checkpoint's emitted-count
// cut. It takes no lock: the EmitShard contract serializes same-shard
// calls, so under -race a violation shows as a data race.
type shardRecorder struct {
	keys [][][2]uint64
}

func newShardRecorder(shards int) *shardRecorder {
	return &shardRecorder{keys: make([][][2]uint64, shards)}
}

func (r *shardRecorder) emit(shard int, ps []join.Pair) {
	for i := range ps {
		r.keys[shard] = append(r.keys[shard], ckptKey(&ps[i].R, &ps[i].S))
	}
}

// all is every shard's keys in one slice.
func (r *shardRecorder) all() [][2]uint64 { return slices.Concat(r.keys...) }

// wantPairs is exact's multiset of pred over tuples, one key per pair:
// a sort-merge on the key for a residual-free equi or band predicate, a
// nested loop over Matches otherwise.
func wantPairs[K any](pred join.Predicate, tuples []join.Tuple, key func(r, s *join.Tuple) K) []K {
	var sides [2][]join.Tuple
	for _, t := range tuples {
		sides[t.Rel] = append(sides[t.Rel], t)
	}
	if pred.Residual != nil || pred.Kind == join.Theta {
		match := func(r, s *join.Tuple) bool { return pred.Matches(*r, *s) }
		return exact.Theta(sides[matrix.SideR], sides[matrix.SideS], match, key)
	}
	w := pred.Width
	if pred.Kind == join.Equi {
		w = 0
	}
	joinKey := func(t *join.Tuple) (int64, bool) { return t.Key, !t.Dummy }
	return exact.Band(sides[matrix.SideR], sides[matrix.SideS], w, joinKey, key)
}

// refPairs is exact's multiset over the final sequence-stamped tuples,
// keyed by member seqs.
func refPairs(p join.Predicate, tuples []join.Tuple) [][2]uint64 {
	return wantPairs(p, tuples, ckptKey)
}

// stampedPairs stamps tuples with the seqs a single feeder's Send
// assigns and returns refPairs over them.
func stampedPairs(p join.Predicate, tuples []join.Tuple) [][2]uint64 {
	stampSeqs(tuples, 0)
	return refPairs(p, tuples)
}

// sendAll sends tuples one by one, recording each tuple as it was
// sequence-stamped by collecting the operator's view via Seq assignment
// order. Tuples are returned so the oracle can run over the stamped
// stream (Send assigns Seq; the oracle needs it for pair identity).
func sendAll(t *testing.T, op *Operator, tuples []join.Tuple) {
	t.Helper()
	for i := range tuples {
		if err := op.Send(tuples[i]); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
}

// stampSeqs pre-assigns the sequence numbers a single feeder's Send
// would assign, so the oracle and the operator agree on pair identity.
// Must mirror Operator.Send: seq starts at 1 and increments per tuple.
func stampSeqs(tuples []join.Tuple, from uint64) uint64 {
	for i := range tuples {
		from++
		tuples[i].Seq = from
	}
	return from
}

// latestSnapshot decodes the backend's newest committed checkpoint,
// resolving its whole base+delta chain.
func latestSnapshot(t *testing.T, b storage.Backend) *storage.OperatorSnapshot {
	t.Helper()
	gens, err := b.Generations()
	if err != nil {
		t.Fatalf("backend generations: %v", err)
	}
	if len(gens) == 0 {
		t.Fatal("backend holds no checkpoint")
	}
	blobs, err := b.Load(gens[0])
	if err != nil {
		t.Fatalf("load checkpoint %d: %v", gens[0], err)
	}
	snap, err := storage.DecodeOperatorSnapshotChain(blobs)
	if err != nil {
		t.Fatalf("decode checkpoint %d: %v", gens[0], err)
	}
	return snap
}

// combineCutAndReplay builds the recovered output: shard i of the
// first run truncated to the snapshot's emitted cut, plus the whole
// second run.
func combineCutAndReplay(snap *storage.OperatorSnapshot, run1, run2 *shardRecorder) [][2]uint64 {
	emitted := make(map[int]int64, len(snap.Joiners))
	for _, js := range snap.Joiners {
		emitted[js.ID] = js.Emitted
	}
	var got [][2]uint64
	for shard, ks := range run1.keys {
		got = append(got, ks[:min(emitted[shard], int64(len(ks)))]...)
	}
	for _, ks := range run2.keys {
		got = append(got, ks...)
	}
	return got
}

// TestCheckpointRestoreReplayExact is the basic crashless round trip:
// checkpoint mid-stream, finish the first operator, then rebuild from
// the snapshot, replay the retained log, and check that the cut prefix
// of run 1 plus all of run 2 is exactly the nested-loop oracle.
func TestCheckpointRestoreReplayExact(t *testing.T) {
	reshufflerCases(t, 8, func(t *testing.T, numRe int) {
		rng := rand.New(rand.NewSource(21))
		pred := join.EquiJoin("eq", nil)
		tuples := mixedStream(rng, 1500, 1500, 61)
		stampSeqs(tuples, 0)
		want := refPairs(pred, tuples)

		backend := storage.NewMemBackend()
		const maxJ = 64 // generous shard bound, operator stays at J=8
		run1 := newShardRecorder(maxJ)
		cfg := Config{J: 8, Pred: pred, Seed: 17, Backend: backend, EmitShard: run1.emit, NumReshufflers: numRe}
		op := mustOperator(t, cfg)
		op.Start()

		half := len(tuples) / 2
		sendAll(t, op, tuples[:half])
		if err := op.Checkpoint(); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		sendAll(t, op, tuples[half:])
		if err := op.Finish(); err != nil {
			t.Fatalf("finish: %v", err)
		}
		if n := op.Metrics().Checkpoints.Load(); n != 1 {
			t.Fatalf("committed %d checkpoints, want 1", n)
		}

		snap := latestSnapshot(t, backend)
		run2 := newShardRecorder(maxJ)
		cfg2 := Config{Pred: pred, Seed: 999 /* overridden by snapshot */, Backend: backend, EmitShard: run2.emit}
		op2, err := RestoreOperator(cfg2, snap)
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

		exact.Equal(t, combineCutAndReplay(snap, run1, run2), want)
	})
}

// TestRestoreKeepsCheckpointReshufflers checkpoints under a reshuffler
// count that is neither the default nor J and restores with a default
// config: the restored operator must run the snapshot's rings — the
// replay log is cut per ring — and recover exactly.
func TestRestoreKeepsCheckpointReshufflers(t *testing.T) {
	const numRe = 8
	rng := rand.New(rand.NewSource(25))
	pred := join.EquiJoin("eq", nil)
	tuples := mixedStream(rng, 1500, 1500, 53)
	stampSeqs(tuples, 0)
	want := refPairs(pred, tuples)

	backend := storage.NewMemBackend()
	run1 := newShardRecorder(64)
	op := mustOperator(t, Config{J: 16, Pred: pred, Seed: 19, Backend: backend, EmitShard: run1.emit, NumReshufflers: numRe})
	op.Start()
	sendAll(t, op, tuples[:len(tuples)/2])
	if err := op.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	sendAll(t, op, tuples[len(tuples)/2:])
	if err := op.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}

	snap := latestSnapshot(t, backend)
	run2 := newShardRecorder(64)
	op2, err := RestoreOperator(Config{Pred: pred, Backend: backend, EmitShard: run2.emit}, snap)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := len(op2.sources); got != numRe {
		t.Fatalf("restored operator runs %d source rings, checkpoint had %d", got, numRe)
	}
	op2.Start()
	if err := op2.ReplayFrom(op.ReplayLog()); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := op2.Finish(); err != nil {
		t.Fatalf("finish restored: %v", err)
	}
	exact.Equal(t, combineCutAndReplay(snap, run1, run2), want)
}

// TestCheckpointReplayWholeLogIsIdempotent replays a log whose prefix
// is already inside the checkpoint cut (simulating a crash after the
// backend write but before the log trim): the sequence filters must
// drop the covered prefix.
func TestCheckpointReplayWholeLogIsIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	pred := join.EquiJoin("eq", nil)
	tuples := mixedStream(rng, 800, 800, 37)
	stampSeqs(tuples, 0)
	want := refPairs(pred, tuples)

	backend := storage.NewMemBackend()
	run1 := newShardRecorder(64)
	op := mustOperator(t, Config{J: 4, Pred: pred, Seed: 5, Backend: backend, EmitShard: run1.emit})
	op.Start()
	sendAll(t, op, tuples[:400])
	if err := op.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	sendAll(t, op, tuples[400:])
	if err := op.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}

	// Un-trim: rebuild a log holding the ENTIRE input, as if no trim had
	// happened before the crash.
	full := newReplayLog(len(op.sources), new(metrics.Operator))
	for i := range tuples {
		d := dealTarget(tuples[i].Seq, len(op.sources))
		full.rings[d].append([]join.Tuple{tuples[i]})
	}

	snap := latestSnapshot(t, backend)
	run2 := newShardRecorder(64)
	op2, err := RestoreOperator(Config{Pred: pred, Backend: backend, EmitShard: run2.emit}, snap)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	op2.Start()
	if err := op2.ReplayFrom(full); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := op2.Finish(); err != nil {
		t.Fatalf("finish restored: %v", err)
	}
	exact.Equal(t, combineCutAndReplay(snap, run1, run2), want)
}

// TestCheckpointStraddlesMigrations requests checkpoints while an
// adaptive operator is migrating on a lopsided stream: the controller
// must slot barriers between elementary chain steps and both sides of
// the cut must stay exact.
func TestCheckpointStraddlesMigrations(t *testing.T) {
	reshufflerCases(t, 16, func(t *testing.T, numRe int) {
		rng := rand.New(rand.NewSource(23))
		pred := join.EquiJoin("eq", nil)
		var tuples []join.Tuple
		for i := 0; i < 150; i++ {
			tuples = append(tuples, join.Tuple{Rel: matrix.SideR, Key: rng.Int63n(40), Size: 8})
		}
		for i := 0; i < 9000; i++ {
			tuples = append(tuples, join.Tuple{Rel: matrix.SideS, Key: rng.Int63n(40), Size: 8})
		}
		stampSeqs(tuples, 0)
		want := refPairs(pred, tuples)

		backend := storage.NewMemBackend()
		run1 := newShardRecorder(64)
		op := mustOperator(t, Config{
			J: 16, Pred: pred, Adaptive: true, Warmup: 500, Seed: 29,
			Backend: backend, EmitShard: run1.emit, NumReshufflers: numRe,
		})
		op.Start()
		// Checkpoint repeatedly mid-stream so at least one request lands
		// while a migration chain is in flight.
		for i, tp := range tuples {
			if err := op.Send(tp); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
			if i > 0 && i%1500 == 0 {
				if err := op.Checkpoint(); err != nil {
					t.Fatalf("checkpoint at %d: %v", i, err)
				}
			}
		}
		if err := op.Finish(); err != nil {
			t.Fatalf("finish: %v", err)
		}
		if op.Migrations() == 0 {
			t.Fatal("expected migrations on a lopsided stream")
		}
		if op.Metrics().Checkpoints.Load() == 0 {
			t.Fatal("expected committed checkpoints")
		}

		snap := latestSnapshot(t, backend)
		run2 := newShardRecorder(64)
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
		exact.Equal(t, combineCutAndReplay(snap, run1, run2), want)
	})
}

// TestAutoCheckpointEvery paces checkpoints from ingest volume.
func TestAutoCheckpointEvery(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	pred := join.EquiJoin("eq", nil)
	tuples := mixedStream(rng, 2000, 2000, 101)
	backend := storage.NewMemBackend()
	rec := newShardRecorder(64)
	op := mustOperator(t, Config{J: 4, Pred: pred, Seed: 3, Backend: backend, CheckpointEvery: 1000, EmitShard: rec.emit})
	op.Start()
	sendAll(t, op, tuples)
	if err := op.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	n := op.Metrics().Checkpoints.Load()
	if n < 2 {
		t.Fatalf("CheckpointEvery=1000 over %d tuples committed only %d checkpoints", len(tuples), n)
	}
	if gens, err := backend.Generations(); err != nil || len(gens) == 0 {
		t.Fatalf("backend generations: %v err=%v", gens, err)
	}
	// The replay log must have been trimmed to the last cut: retained
	// items are bounded by what arrived after the last checkpoint.
	if got := op.ReplayLog().Len(); got >= len(tuples) {
		t.Fatalf("replay log retains %d of %d items — never trimmed", got, len(tuples))
	}
}

// TestCheckpointDefaultConfigNineGenerations runs nine checkpoints
// through a file backend with nothing overridden — keep 2 — so later
// generations are deltas stacked on generation 1 long after it left the
// keep window (until the dead-bytes rule compacts the chain). Every
// Checkpoint call must commit, and the newest generation must decode
// with its whole chain; the backend GC used to forget the base's
// metadata at generation 3 and fail every delta after it.
func TestCheckpointDefaultConfigNineGenerations(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pred := join.EquiJoin("eq", nil)
	tuples := mixedStream(rng, 2250, 2250, 101)
	backend, err := storage.NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	op := mustOperator(t, Config{J: 4, Pred: pred, Seed: 3, Backend: backend, EmitShard: newShardRecorder(64).emit})
	op.Start()
	prev := 0
	for i := 0; i < 9; i++ {
		sendAll(t, op, tuples[i*500:(i+1)*500])
		if err := op.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d of 9: %v", i+1, err)
		}
		if i < 7 {
			// Loading refreshes the backend's metadata cache, which
			// would hide the defect; look only at the last two chains.
			continue
		}
		stored := 0
		for _, js := range latestSnapshot(t, backend).Joiners {
			st := storage.NewStore(pred, storage.Config{})
			if err := js.Restore(st); err != nil {
				t.Fatalf("checkpoint %d: joiner %d state chain: %v", i+1, js.ID, err)
			}
			stored += st.TotalLen()
		}
		// A (2,2) mapping stores every tuple on two joiners; the cut
		// may trail the feed by what is still in flight, never lead it.
		if sent := 2 * 500 * (i + 1); stored <= prev || stored > sent {
			t.Fatalf("checkpoint %d holds %d stored tuples after %d before it, %d sent", i+1, stored, prev, sent)
		}
		prev = stored
	}
	if err := op.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	if n := op.Metrics().Checkpoints.Load(); n != 9 {
		t.Fatalf("committed %d checkpoints, want 9", n)
	}
}

// TestCheckpointWithoutBackend fails fast.
func TestCheckpointWithoutBackend(t *testing.T) {
	pred := join.EquiJoin("eq", nil)
	op := mustOperator(t, Config{J: 4, Pred: pred})
	op.Start()
	if err := op.Checkpoint(); err != ErrNoBackend {
		t.Fatalf("checkpoint without backend: %v, want ErrNoBackend", err)
	}
	if op.ReplayLog() != nil {
		t.Fatal("backendless operator grew a replay log")
	}
	if err := op.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
}

// TestCheckpointAfterFinish returns ErrFinished instead of hanging.
func TestCheckpointAfterFinish(t *testing.T) {
	pred := join.EquiJoin("eq", nil)
	op := mustOperator(t, Config{J: 4, Pred: pred, Backend: storage.NewMemBackend()})
	op.Start()
	if err := op.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	if err := op.Checkpoint(); err != ErrFinished {
		t.Fatalf("checkpoint after finish: %v, want ErrFinished", err)
	}
}

// TestCheckpointConcurrentWithSends exercises the request path under
// four concurrent feeders, under the race detector in CI.
func TestCheckpointConcurrentWithSends(t *testing.T) {
	pred := join.EquiJoin("eq", nil)
	backend := storage.NewMemBackend()
	var emitted sync.Map
	op := mustOperator(t, Config{
		J: 8, Pred: pred, Seed: 77, Backend: backend,
		EmitShard: func(shard int, ps []join.Pair) {
			for _, p := range ps {
				if _, dup := emitted.LoadOrStore(ckptKey(&p.R, &p.S), true); dup {
					t.Errorf("duplicate pair %v", ckptKey(&p.R, &p.S))
				}
			}
		},
	})
	op.Start()
	var wg sync.WaitGroup
	for f := 0; f < 4; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + f)))
			for i := 0; i < 2000; i++ {
				rel := matrix.SideR
				if i%2 == 1 {
					rel = matrix.SideS
				}
				if err := op.Send(join.Tuple{Rel: rel, Key: rng.Int63n(50), Size: 8}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(f)
	}
	// Checkpoint only once the feeders are under way: three barriers
	// can otherwise all commit before the first Send, leaving the
	// latest snapshot's sequence cursor at 0.
	for op.seq.Load() == 0 {
		runtime.Gosched()
	}
	for c := 0; c < 3; c++ {
		if err := op.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", c, err)
		}
	}
	wg.Wait()
	if err := op.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	if op.Metrics().Checkpoints.Load() < 3 {
		t.Fatalf("committed %d checkpoints, want >= 3", op.Metrics().Checkpoints.Load())
	}
	snap := latestSnapshot(t, backend)
	if snap.Seq == 0 || len(snap.Joiners) != 8 {
		t.Fatalf("snapshot seq=%d joiners=%d", snap.Seq, len(snap.Joiners))
	}
}

// TestRestoreRejectsCorruptTable guards RestoreOperator's bounds checks.
func TestRestoreRejectsCorruptTable(t *testing.T) {
	pred := join.EquiJoin("eq", nil)
	backend := storage.NewMemBackend()
	op := mustOperator(t, Config{J: 4, Pred: pred, Backend: backend})
	op.Start()
	if err := op.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := op.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	snap := latestSnapshot(t, backend)
	snap.Table[2] = 97 // out of range
	if _, err := RestoreOperator(Config{Pred: pred, Backend: backend}, snap); err == nil {
		t.Fatal("restore accepted a table naming a nonexistent joiner")
	} else if got := fmt.Sprintf("%v", err); got == "" {
		t.Fatal("empty error")
	}
}
