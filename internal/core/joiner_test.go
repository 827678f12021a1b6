package core

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/storage"
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
	want := refCount(pred, tuples)
	got, op := runOperator(t, Config{
		J: 4, Pred: pred, Adaptive: true, Warmup: 500, Seed: 3,
		Storage: storage.Config{CapBytes: 16 * 1024, Dir: t.TempDir()},
	}, tuples)
	if got != want {
		t.Fatalf("emitted %d, reference %d (migrations=%d)", got, want, op.Migrations())
	}
	if op.Migrations() == 0 {
		t.Fatal("no migrations; test does not exercise spill relocation")
	}
	if !op.Metrics().AnySpill() {
		t.Fatal("no spill; test does not exercise the disk tier")
	}
}

// Static operator with a sub-working-set cap: spill flagged and exact.
func TestStaticOperatorWithSpillExact(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pred := join.BandJoin("band", 1, nil)
	tuples := mixedStream(rng, 1200, 1200, 200)
	want := refCount(pred, tuples)
	got, op := runOperator(t, Config{
		J: 4, Pred: pred, Seed: 5,
		Storage: storage.Config{CapBytes: 4 * 1024, Dir: t.TempDir()},
	}, tuples)
	if got != want {
		t.Fatalf("emitted %d, reference %d", got, want)
	}
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
	tuples := mixedStream(rng, 9000, 9000, 70)
	want := refCount(pred, tuples)
	// M chosen so the growth settles at exactly J=16: per-joiner state
	// passes M/2 at J=1 and J=4 but not at J=16.
	var n atomic.Int64
	op := NewOperator(Config{
		J: 1, Pred: pred, Adaptive: true, Seed: 9,
		Warmup:             200,
		MaxTuplesPerJoiner: 10000,
		MaxJoiners:         64, // safety net against runaway growth
		Emit:               func(join.Pair) { n.Add(1) },
	})
	op.Start()
	// The second expansion is decided on the stream that arrives after
	// the first one has drained. The controller decides asynchronously,
	// so feed until the first expansion has been issued, wait until its
	// last ack is in, and only then feed the rest — otherwise a fast
	// feeder can finish the stream while the first migration drains,
	// and no decision is taken past the end of the input.
	i := 0
	waitFor := func(what string, done func() bool) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); !done(); {
			if i < len(tuples)/2 {
				if err := op.Send(tuples[i]); err != nil {
					t.Fatal(err)
				}
				i++
				continue
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never happened after %d tuples", what, i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor("the first expansion", func() bool { return op.NumJoiners() == 4 })
	waitFor("the first expansion's drain", func() bool { return op.Metrics().MigrationNanos.Load() > 0 })
	for ; i < len(tuples); i++ {
		if err := op.Send(tuples[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := op.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := n.Load(); got != want {
		t.Fatalf("emitted %d, reference %d", got, want)
	}
	if op.Metrics().Expansions.Load() < 2 {
		t.Fatalf("expansions %d, want >= 2 (J grew to %d)",
			op.Metrics().Expansions.Load(), op.NumJoiners())
	}
	if op.NumJoiners() < 16 {
		t.Fatalf("joiners %d after double expansion", op.NumJoiners())
	}
}
