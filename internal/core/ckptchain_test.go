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
