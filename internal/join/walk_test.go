package join

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/matrix"
)

// TestPipelinedWalkDifferential holds the probe-then-insert step
// (Local.AddBatchCollect on whole runs: the chunked walk of the
// opposite side's indexes, then the run indexed in the own side's slot
// index) against the classic symmetric join step: a twin Local fed the
// same tuples one AddBatchCollect call per tuple, so no chunk ever
// holds two keys. Runs take every length from 1 to 40 (under, at and
// across walkChunk), mix dummies, repeat one key inside a chunk (so a
// later insert of the chunk must see the slot an earlier one just
// filled, not the chunk's stale home-slot load), and run right after
// forced growths (forceGrowth) of the opposite and own indexes; unique
// keys keep both directories growing, so a growth also lands inside a
// run. After every run the pair multisets (tuple contents included)
// must agree, and checkStore must pass on both of the batched Local's
// sides. Each case runs under the real hash and with tags forced to
// collide.
func TestPipelinedWalkDifferential(t *testing.T) {
	for _, collide := range []bool{false, true} {
		t.Run(fmt.Sprintf("collide=%v", collide), func(t *testing.T) {
			if collide {
				forceTagCollisions(t)
			}
			walkDifferential(t)
		})
	}
}

func walkDifferential(t *testing.T) {
	pred := EquiJoin("walk", nil)
	rng := rand.New(rand.NewSource(38))
	l, ref := NewLocal(pred), NewLocal(pred)
	sides := func(x *Local) [2]*HashIndex { return [2]*HashIndex{x.r.(*HashIndex), x.s.(*HashIndex)} }
	var seq uint64
	var fresh int64
	var oppGrown, ownGrown, grewMid, dummies, repeats int
	for step := 0; step < 800; step++ {
		var grown [2]bool
		if step%10 == 0 {
			// Grow both directories between runs.
			for i, h := range sides(l) {
				if grown[i] = h.own.ix.used > 0; grown[i] {
					forceGrowth(h)
				}
			}
		}
		rel := matrix.Side(rng.Intn(2))
		run := make([]Tuple, 1+step%40)
		hot := int64(step/25) * 4 // a rotating hot set keeps chains short
		for i := range run {
			var key int64
			switch rng.Intn(4) {
			case 0:
				key = hot + rng.Int63n(4)
			case 1:
				key = 1<<20 + rng.Int63n(1<<12)
			default:
				fresh++
				key = 1<<40 + fresh // distinct: grows the own directory
			}
			seq++
			run[i] = Tuple{Rel: rel, Key: key, Aux: int64(seq) * 3, Size: int32(1 + seq%7), U: seq * 11, Seq: seq}
			if rng.Intn(8) == 0 {
				run[i].Payload = []byte{byte(seq), byte(key)}
			}
			if rng.Intn(10) == 0 {
				run[i].Dummy = true
				dummies++
			}
		}
		if rng.Intn(5) == 0 && len(run) > 1 {
			// One key repeated across a chunk, newest chain link each time.
			k := hot + rng.Int63n(4)
			for i := range run {
				run[i].Key = k
			}
			repeats++
		}

		own := sides(l)[rel]
		if len(run) > 1 {
			if grown[rel.Other()] {
				oppGrown++
			}
			if grown[rel] {
				ownGrown++
			}
		}
		before := len(own.own.ix.cur.slots)
		var got, want []Pair
		if rng.Intn(4) == 0 {
			// ProbeBatchCollect walks the same chunks and stores nothing.
			l.ProbeBatchCollect(run, &got)
			for i := range run {
				ref.ProbeBatchCollect(run[i:i+1], &want)
			}
		} else {
			l.AddBatchCollect(run, &got)
			for i := range run {
				ref.AddBatchCollect(run[i:i+1], &want)
			}
			if len(run) > 1 && before != 0 && len(own.own.ix.cur.slots) != before {
				grewMid++
			}
		}
		samePairs(t, fmt.Sprintf("step %d (%d×%v)", step, len(run), rel), got, want)
		for _, h := range sides(l) {
			checkStore(t, fmt.Sprintf("step %d", step), h)
		}
	}
	for i, h := range sides(l) {
		if h.Len() != sides(ref)[i].Len() || h.Bytes() != sides(ref)[i].Bytes() {
			t.Fatalf("side %d: Len/Bytes %d/%d, twin %d/%d", i, h.Len(), h.Bytes(), sides(ref)[i].Len(), sides(ref)[i].Bytes())
		}
	}
	for name, n := range map[string]int{
		"opposite directory just grown": oppGrown, "own directory just grown": ownGrown,
		"growth inside a run": grewMid, "dummies": dummies, "repeated-key runs": repeats,
	} {
		if n == 0 {
			t.Errorf("never exercised: %s", name)
		}
	}
}

// The probe-then-insert step allocates nothing of its own: once the
// gather scratch and the pair buffer are warm, runs on both sides make
// no allocation but the blocks, chain columns, table and directory
// growths that storing them takes, fewer than one per run.
func TestPipelinedWalkAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	l := NewLocal(EquiJoin("walk", nil))
	rs, ss := make([]Tuple, 40), make([]Tuple, 40)
	out := make([]Pair, 0, 64)
	next := int64(0)
	step := func() {
		for i := range rs {
			next++
			rs[i] = Tuple{Rel: matrix.SideR, Key: next, Seq: uint64(2 * next)}
			ss[i] = Tuple{Rel: matrix.SideS, Key: next, Seq: uint64(2*next + 1)}
		}
		out = out[:0]
		l.AddBatchCollect(rs, &out)
		l.AddBatchCollect(ss, &out)
		if len(out) != len(ss) {
			t.Fatalf("%d pairs, want %d", len(out), len(ss))
		}
	}
	step()
	if n := testing.AllocsPerRun(40, step); n != 0 {
		t.Fatalf("a probe-insert step allocated %.1f times", n)
	}
}

// samePairs compares two pair multisets whose (R.Seq, S.Seq) keys are
// unique, tuple contents included.
func samePairs(t *testing.T, label string, got, want []Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, twin %d", label, len(got), len(want))
	}
	for _, ps := range [2][]Pair{got, want} {
		sort.Slice(ps, func(i, j int) bool {
			if ps[i].R.Seq != ps[j].R.Seq {
				return ps[i].R.Seq < ps[j].R.Seq
			}
			return ps[i].S.Seq < ps[j].S.Seq
		})
	}
	for i := range got {
		if !eqTuple(got[i].R, want[i].R) || !eqTuple(got[i].S, want[i].S) {
			t.Fatalf("%s: pair %d = %+v, twin %+v", label, i, got[i], want[i])
		}
	}
}
