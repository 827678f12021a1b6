package join

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/matrix"
)

// TestPipelinedWalkDifferential holds the chunked probe-insert walk
// (Local.AddBatchCollect on whole runs) against the classic symmetric
// join step: a twin Local fed the same tuples one AddBatchCollect call
// per tuple, so no chunk ever holds two keys. Runs take every length
// from 1 to 40 (under, at and across walkChunk), mix dummies, repeat
// one key inside a chunk (so a later insert of the chunk must see the
// slot an earlier one just filled, not the chunk's stale home-slot
// copy), and are pinned with the opposite and own directories
// mid-rehash; unique keys keep both directories growing, so a growTo
// lands inside a chunk. After every run the pair multisets (tuple
// contents included) must agree, and checkChains must pass on both of
// the batched Local's directories. Each case runs under the real hash
// and with tags forced to collide.
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
	var oppMid, ownMid, grewMid, dummies, repeats int
	for step := 0; step < 800; step++ {
		if step%10 == 0 {
			// Pin both directories mid-rehash.
			for _, h := range sides(l) {
				if !h.rehashing() && h.used > 0 {
					h.growTo(len(h.slots))
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

		own, opp := sides(l)[rel], sides(l)[rel.Other()]
		if len(run) > 1 {
			if opp.rehashing() {
				oppMid++
			}
			if own.rehashing() {
				ownMid++
			}
		}
		before := len(own.slots)
		var got, want []Pair
		if rng.Intn(4) == 0 {
			// ProbeBatchCollect walks the same chunks without an own side.
			l.ProbeBatchCollect(run, &got)
			for i := range run {
				ref.ProbeBatchCollect(run[i:i+1], &want)
			}
		} else {
			l.AddBatchCollect(run, &got)
			for i := range run {
				ref.AddBatchCollect(run[i:i+1], &want)
			}
			if len(run) > 1 && before != 0 && len(own.slots) != before {
				grewMid++
			}
		}
		samePairs(t, fmt.Sprintf("step %d (%d×%v)", step, len(run), rel), got, want)
		for _, h := range sides(l) {
			checkChains(t, fmt.Sprintf("step %d", step), h)
		}
	}
	for i, h := range sides(l) {
		if h.Len() != sides(ref)[i].Len() || h.Bytes() != sides(ref)[i].Bytes() {
			t.Fatalf("side %d: Len/Bytes %d/%d, twin %d/%d", i, h.Len(), h.Bytes(), sides(ref)[i].Len(), sides(ref)[i].Bytes())
		}
	}
	for name, n := range map[string]int{
		"opposite directory mid-rehash": oppMid, "own directory mid-rehash": ownMid,
		"growth inside a run": grewMid, "dummies": dummies, "repeated-key runs": repeats,
	} {
		if n == 0 {
			t.Errorf("never exercised: %s", name)
		}
	}
}

// The walk allocates nothing of its own: once both sides are reserved
// and the gather scratch and the pair buffer are warm, probe-insert runs
// on both sides make no allocation.
func TestPipelinedWalkAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	l := NewLocal(EquiJoin("walk", nil))
	l.Reserve(4096, 4096)
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
