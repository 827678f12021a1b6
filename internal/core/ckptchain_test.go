package core

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/storage"
)

// sizeRecorder is a backend that keeps, per committed Write, the blob's
// size and its dependency list — enough to add up a chain's bytes from
// outside the operator.
type sizeRecorder struct {
	storage.Backend
	mu     sync.Mutex
	size   map[uint64]int
	writes []recordedWrite
}

type recordedWrite struct {
	id   uint64
	size int
	deps []uint64
}

func newSizeRecorder() *sizeRecorder {
	return &sizeRecorder{Backend: storage.NewMemBackend(), size: make(map[uint64]int)}
}

func (b *sizeRecorder) Write(id uint64, data []byte, deps []uint64) error {
	if err := b.Backend.Write(id, data, deps); err != nil {
		return err
	}
	b.mu.Lock()
	b.size[id] = len(data)
	b.writes = append(b.writes, recordedWrite{id: id, size: len(data), deps: append([]uint64(nil), deps...)})
	b.mu.Unlock()
	return nil
}

// chainBytes adds up a write's blob and every blob it depends on.
func (b *sizeRecorder) chainBytes(w recordedWrite) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := int64(w.size)
	for _, d := range w.deps {
		n += int64(b.size[d])
	}
	return n
}

// equiPairs is the equi-join oracle by key grouping, for streams too
// long for the nested loop.
func equiPairs(tuples []join.Tuple) map[[2]uint64]int {
	byKey := make(map[int64][]uint64)
	for _, t := range tuples {
		if t.Rel == matrix.SideR {
			byKey[t.Key] = append(byKey[t.Key], t.Seq)
		}
	}
	out := make(map[[2]uint64]int)
	for _, t := range tuples {
		if t.Rel == matrix.SideS {
			for _, r := range byKey[t.Key] {
				out[[2]uint64{r, t.Seq}]++
			}
		}
	}
	return out
}

// chainRun is what one checkpointed run left behind: the operator's
// commit figures, the backend's writes and the migrations between
// consecutive checkpoints.
type chainRun struct {
	commits []ckptCommit
	writes  []recordedWrite
	migs    []int64
}

// runCheckpointChain feeds tuples in ckpts equal intervals with a
// Checkpoint after each, then checks the chain accounting after every
// commit: the operator's chain bytes equal the blobs the backend was
// handed for that generation and its dependencies, a full snapshot's
// measured size equals its blob, and — the compaction bound — a chain
// holds at most twice the full size its ruling read (the previous
// commit's) plus its newest link. Last it restores from the newest
// generation, replays the log and compares the recovered output with
// want.
func runCheckpointChain(t *testing.T, cfg Config, tuples []join.Tuple, ckpts int, want map[[2]uint64]int) chainRun {
	t.Helper()
	be := newSizeRecorder()
	run1 := newShardRecorder(64)
	cfg.Backend, cfg.EmitShard = be, run1.emit
	op := mustOperator(t, cfg)
	var res chainRun
	var mu sync.Mutex
	op.ckptCommitted = func(c ckptCommit) {
		mu.Lock()
		res.commits = append(res.commits, c)
		mu.Unlock()
	}
	op.Start()
	per := len(tuples) / ckpts
	lastMigs := int64(0)
	for k := 0; k < ckpts; k++ {
		end := (k + 1) * per
		if k == ckpts-1 {
			end = len(tuples)
		}
		sendAll(t, op, tuples[k*per:end])
		if err := op.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", k+1, err)
		}
		m := op.Migrations()
		res.migs = append(res.migs, m-lastMigs)
		lastMigs = m
	}
	if err := op.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	mu.Lock()
	commits := res.commits
	mu.Unlock()
	res.writes = be.writes
	if len(commits) != ckpts || len(res.writes) != ckpts {
		t.Fatalf("%d commits reported, %d writes recorded, want %d", len(commits), len(res.writes), ckpts)
	}
	for k, c := range commits {
		w := res.writes[k]
		if w.id != c.id || int64(w.size) != c.blob {
			t.Fatalf("commit %d: operator reports generation %d of %d B, backend got %d of %d B", k+1, c.id, c.blob, w.id, w.size)
		}
		if got := be.chainBytes(w); got != c.chain {
			t.Fatalf("commit %d: operator counts %d chain bytes, the backend holds %d", k+1, c.chain, got)
		}
		if len(w.deps) == 0 && c.full != c.blob {
			t.Fatalf("commit %d: full snapshot of %d B measured at %d B", k+1, c.blob, c.full)
		}
		if k > 0 && c.chain > 2*commits[k-1].full+c.blob {
			t.Fatalf("commit %d: chain of %d links holds %d B, bound 2 x %d + %d", k+1, len(w.deps)+1, c.chain, commits[k-1].full, c.blob)
		}
	}

	snap := latestSnapshot(t, be)
	run2 := newShardRecorder(64)
	op2, err := RestoreOperator(Config{Pred: cfg.Pred, Backend: be, EmitShard: run2.emit}, snap)
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
	return res
}

// fulls counts the full snapshots among a run's writes.
func (r chainRun) fulls() int {
	n := 0
	for _, w := range r.writes {
		if len(w.deps) == 0 {
			n++
		}
	}
	return n
}

// TestCheckpointChainBytesBounded pins the compaction rule: a chain is
// folded back to one full snapshot only once it holds more bytes than
// two full snapshots. An append-only equi stream has nearly no dead
// bytes and keeps one base for 20 checkpoints; a band join re-encodes
// its ordered index in every link and compacts; an adaptive stream
// migrates between checkpoints and stays inside the bound.
func TestCheckpointChainBytesBounded(t *testing.T) {
	t.Run("append-only", func(t *testing.T) {
		const ckpts = 20
		rng := rand.New(rand.NewSource(451))
		tuples := mixedStream(rng, 30_000, 30_000, 1<<20)
		stampSeqs(tuples, 0)
		res := runCheckpointChain(t, Config{J: 4, Pred: join.EquiJoin("eq", nil), Seed: 7}, tuples, ckpts, equiPairs(tuples))
		if n := res.fulls(); n != 1 {
			t.Fatalf("%d full snapshots in %d checkpoints of an append-only stream, want 1", n, ckpts)
		}
		if last := res.writes[ckpts-1]; len(last.deps) != ckpts-1 {
			t.Fatalf("newest generation depends on %d links, want %d", len(last.deps), ckpts-1)
		}
	})
	t.Run("band", func(t *testing.T) {
		const ckpts = 12
		rng := rand.New(rand.NewSource(452))
		pred := join.BandJoin("band", 1, nil)
		tuples := mixedStream(rng, 1500, 1500, 4000)
		stampSeqs(tuples, 0)
		res := runCheckpointChain(t, Config{J: 4, Pred: pred, Seed: 7}, tuples, ckpts, refPairs(pred, tuples))
		if n := res.fulls(); n < 2 {
			t.Fatalf("%d full snapshots in %d checkpoints of a band join, want a compaction", n, ckpts)
		}
	})
	t.Run("adaptive", func(t *testing.T) {
		// Alternating R-heavy and S-heavy bursts, a checkpoint after each:
		// every swing is a chain of elementary steps, Retains included.
		rng := rand.New(rand.NewSource(453))
		pred := join.EquiJoin("eq", nil)
		const bursts, burst = 6, 2500
		var tuples []join.Tuple
		for b := 0; b < bursts; b++ {
			for i := 0; i < burst; i++ {
				tuples = append(tuples, join.Tuple{Rel: matrix.Side(b % 2), Key: rng.Int63n(400), Size: 8})
			}
		}
		stampSeqs(tuples, 0)
		res := runCheckpointChain(t, Config{J: 16, Pred: pred, Adaptive: true, Seed: 13}, tuples, bursts, refPairs(pred, tuples))
		t.Logf("migrations between checkpoints %v; %d of %d snapshots full", res.migs, res.fulls(), bursts)
		most := int64(0)
		for _, m := range res.migs {
			most = max(most, m)
		}
		if most < 2 {
			t.Fatalf("migrations between checkpoints %v: want an interval with at least 2", res.migs)
		}
	})
}

// TestCheckpointWritesEachBlockOnce holds the checkpoints of a shared
// grid to the bytes of the state they hold. On a static (4,4) equi grid
// the four joiners of a row (column) view the same blocks for every R
// (S) tuple; a checkpoint writes each such block once, in its block
// table, and each joiner's view of it as a reference. So the full
// snapshot and the delta after it each stay within 1.1 x 40 B per
// distinct tuple stored, plus framing — four times that if every
// joiner wrote the blocks it views. The chain must restore
// oracle-exact after ReplayFrom, and the restored row-mates must view
// the same blocks again (checkRestoredSharing).
func TestCheckpointWritesEachBlockOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	tuples := mixedStream(rng, 10_000, 10_000, 1<<20)
	stampSeqs(tuples, 0)
	be := newSizeRecorder()
	run1 := newShardRecorder(16)
	pred := join.EquiJoin("eq", nil)
	op := mustOperator(t, Config{
		J: 16, Pred: pred, Initial: matrix.Mapping{N: 4, M: 4}, NumReshufflers: 2, Seed: 9,
		Backend: be, EmitShard: run1.emit,
	})
	op.Start()
	half := len(tuples) / 2
	for k := 0; k < 2; k++ {
		sendAll(t, op, tuples[k*half:(k+1)*half])
		if err := op.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", k+1, err)
		}
	}
	if err := op.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	if len(be.writes) != 2 || len(be.writes[0].deps) != 0 || len(be.writes[1].deps) != 1 {
		t.Fatalf("want a full snapshot and a delta on it, backend got %+v", be.writes)
	}
	// Framing: the fixed records, a record frame and head per joiner and
	// per blocks record, an entry head per block and a 13-byte reference
	// per view — a view per envelope, about 30 tuples on each of four
	// joiners.
	const framing = 4 << 10
	for k, w := range be.writes {
		blobs, err := be.Load(w.id)
		if err != nil {
			t.Fatalf("load checkpoint %d: %v", w.id, err)
		}
		s, err := storage.DecodeOperatorSnapshot(w.id, blobs[len(blobs)-1].Data)
		if err != nil {
			t.Fatalf("decode checkpoint %d: %v", w.id, err)
		}
		stored := 0 // the tuples the reshufflers had routed at the barrier
		for _, c := range s.Cuts {
			stored += int(c)
		}
		if limit := int(1.1*40*float64(stored)) + framing; w.size > limit {
			t.Fatalf("checkpoint %d of %d distinct tuples wrote %d B, limit %d", k+1, stored, w.size, limit)
		}
		t.Logf("checkpoint %d: %d B for %d distinct tuples (%.1f B/tuple)", k+1, w.size, stored, float64(w.size)/float64(stored))
	}

	snap := latestSnapshot(t, be)
	run2 := newShardRecorder(16)
	op2, err := RestoreOperator(Config{Pred: pred, Backend: be, EmitShard: run2.emit}, snap)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	checkRestoredSharing(t, op2.joiners, 0.9)
	op2.Start()
	if err := op2.ReplayFrom(op.ReplayLog()); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := op2.Finish(); err != nil {
		t.Fatalf("finish restored: %v", err)
	}
	diffMultisets(t, combineCutAndReplay(snap, run1, run2), equiPairs(tuples))
}

// checkRestoredSharing requires the stores of a restored grid to keep
// the sharing their checkpoints tabled: at least minShared of every
// store's rows lie in views of blocks restored for two or more stores,
// and each such block is viewed by exactly that many stores, all of one
// grid row (R) or column (S). A restored view of a block is unshared
// only where the chain's links tabled the block's rows apart (a delta
// re-ships a joiner's newest view, and row-mates may take their
// envelopes in another order).
func checkRestoredSharing(t *testing.T, js []*joiner, minShared float64) {
	t.Helper()
	type use struct{ sharers, stores, line int }
	blocks := map[any]*use{}
	for _, w := range js {
		for _, side := range migSides {
			line := w.cell.Row
			if side == matrix.SideS {
				line = w.cell.Col
			}
			rows, shared := 0, 0
			seen := map[any]bool{}
			for _, v := range w.state.Views(side) {
				rows += v.Hi - v.Lo
				if v.Sharers < 2 {
					continue
				}
				shared += v.Hi - v.Lo
				u := blocks[v.Block]
				if u == nil {
					u = &use{sharers: v.Sharers, line: line}
					blocks[v.Block] = u
				}
				if u.line != line {
					t.Fatalf("joiner %d side %v views a restored block of grid line %d, its own is %d", w.id, side, u.line, line)
				}
				if !seen[v.Block] {
					seen[v.Block] = true
					u.stores++
				}
			}
			if rows == 0 || float64(shared) < minShared*float64(rows) {
				t.Fatalf("joiner %d side %v holds %d of %d restored rows in shared blocks, want %.0f%%", w.id, side, shared, rows, 100*minShared)
			}
		}
	}
	for _, u := range blocks {
		if u.stores != u.sharers {
			t.Fatalf("a restored block of %d sharers is viewed by %d stores", u.sharers, u.stores)
		}
	}
}
