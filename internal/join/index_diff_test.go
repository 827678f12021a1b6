package join

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/exact"
	"repro/internal/matrix"
)

// forceTagCollisions narrows tagMask for the rest of the test so the
// directory sees only 4096 distinct tags: with tens of thousands of
// keys, every home slot is contested by several keys carrying the same
// tag, so lookups, inserts and growth can only tell them apart by the
// arena key confirm. (Under the real mask two keys share a tag once in
// 2^32 pairs and that branch would go untested.)
func forceTagCollisions(t *testing.T) {
	t.Helper()
	saved := tagMask
	tagMask = 0xfff00000
	t.Cleanup(func() { tagMask = saved })
}

// mapRef is the reference multimap of the differential test.
type mapRef struct {
	byKey map[int64][]Tuple
	n     int
	bytes int64
}

func (m *mapRef) insert(ts ...Tuple) {
	for _, tp := range ts {
		m.byKey[tp.Key] = append(m.byKey[tp.Key], tp)
		m.n++
		m.bytes += tp.Bytes()
	}
}

func (m *mapRef) retain(keep func(Tuple) bool) int {
	removed := 0
	for key, ts := range m.byKey {
		kept := ts[:0]
		for _, tp := range ts {
			if keep(tp) {
				kept = append(kept, tp)
			} else {
				removed++
				m.bytes -= tp.Bytes()
			}
		}
		if len(kept) == 0 {
			delete(m.byKey, key)
		} else {
			m.byKey[key] = kept
		}
	}
	m.n -= removed
	return removed
}

// sameBySeq compares two tuple multisets whose Seq values are unique.
func sameBySeq(t *testing.T, label string, got, want []Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tuples, reference %d", label, len(got), len(want))
	}
	got = append([]Tuple(nil), got...)
	want = append([]Tuple(nil), want...)
	sort.Slice(got, func(i, j int) bool { return got[i].Seq < got[j].Seq })
	sort.Slice(want, func(i, j int) bool { return want[i].Seq < want[j].Seq })
	for i := range got {
		if !eqTuple(got[i], want[i]) {
			t.Fatalf("%s: tuple %d = %+v, reference %+v", label, i, got[i], want[i])
		}
	}
}

// TestHashIndexDifferential drives one HashIndex and a map[int64][]Tuple
// through random interleavings of every operation that touches the
// directory or the chains — Insert, InsertBatch, Probe,
// ProbeBatchCollect, Retain, MergeFrom — over the three key
// distributions that shape them differently: unique keys (one slot per
// tuple, the directory grows constantly), Zipf (a few long chains among
// many short ones), and a single hot key whose chain passes 10 000
// links. Every fifth operation runs on a directory a forced growth
// (forceGrowth) has just re-placed, so each operation kind demonstrably
// meets a directory whose words growth placed rather than inserts.
// Each distribution runs once under the real hash and once with tags
// forced to collide.
func TestHashIndexDifferential(t *testing.T) {
	pred := EquiJoin("diff", nil)
	for _, dist := range []string{"unique", "zipf", "hot"} {
		for _, collide := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/collide=%v", dist, collide), func(t *testing.T) {
				if collide {
					forceTagCollisions(t)
				}
				rng := rand.New(rand.NewSource(int64(len(dist)) + 1000))
				zipf := rand.NewZipf(rng, 1.2, 1, 1<<14)
				h := NewHashIndex()
				ref := &mapRef{byKey: map[int64][]Tuple{}}
				var seq, fresh uint64
				const hotKey = 42
				uniqueKey := func() int64 {
					fresh++
					return int64(fresh*0x9e3779b97f4a7c15 | 1<<62) // never hotKey, never a Zipf rank
				}
				nextKey := func() int64 {
					switch dist {
					case "zipf":
						return int64(zipf.Uint64())
					case "hot":
						if rng.Intn(10) != 0 {
							return hotKey
						}
					}
					return uniqueKey()
				}
				mk := func(key int64) Tuple {
					seq++
					tp := Tuple{Rel: matrix.SideS, Key: key, Aux: int64(seq) * 3, Size: int32(8 + seq%5), U: hashKey(int64(seq)), Seq: seq}
					if rng.Intn(8) == 0 {
						tp.Payload = []byte{byte(seq), byte(key)}
					}
					return tp
				}
				mkRun := func(n int) []Tuple {
					run := make([]Tuple, n)
					for i := range run {
						run[i] = mk(nextKey())
					}
					return run
				}
				probeKey := func() int64 {
					if rng.Intn(4) == 0 {
						return uniqueKey() // a guaranteed miss
					}
					if dist == "zipf" {
						return nextKey()
					}
					if dist == "hot" && rng.Intn(8) == 0 {
						return hotKey // sparingly: each hit compares the whole chain
					}
					if fresh == 0 {
						return hotKey
					}
					// Re-derive a key inserted earlier.
					return int64((1+uint64(rng.Int63n(int64(fresh))))*0x9e3779b97f4a7c15 | 1<<62)
				}
				if dist == "hot" {
					// Retain thins the chain later; it starts out long.
					run := make([]Tuple, 10_000)
					for i := range run {
						run[i] = mk(hotKey)
					}
					h.InsertBatch(run)
					ref.insert(run...)
					var got []Tuple
					h.Probe(Tuple{Rel: matrix.SideR, Key: hotKey}, func(s Tuple) { got = append(got, s) })
					sameBySeq(t, "10 000-link chain", got, run)
				}

				const (
					opInsert = iota
					opInsertBatch
					opProbe
					opProbeBatch
					opRetain
					opMerge
					numOps
				)
				var afterGrowth [numOps]int
				for step := 0; step < 800; step++ {
					grown := step%5 == 0 && h.own.ix.used > 0
					if grown {
						forceGrowth(h)
					}
					var op int
					switch r := rng.Intn(100); {
					case r < 30:
						op = opInsert
					case r < 50:
						op = opInsertBatch
					case r < 70:
						op = opProbe
					case r < 85:
						op = opProbeBatch
					case r < 89:
						op = opRetain
					default:
						op = opMerge
					}
					if grown {
						afterGrowth[op]++
					}
					switch op {
					case opInsert:
						tp := mk(nextKey())
						h.Insert(tp)
						ref.insert(tp)
					case opInsertBatch:
						run := mkRun(1 + rng.Intn(40))
						h.InsertBatch(run)
						ref.insert(run...)
					case opProbe:
						key := probeKey()
						var got []Tuple
						h.Probe(Tuple{Rel: matrix.SideR, Key: key}, func(s Tuple) { got = append(got, s) })
						sameBySeq(t, fmt.Sprintf("step %d: Probe(%d)", step, key), got, ref.byKey[key])
						for i := 1; i < len(got); i++ {
							if got[i-1].Key != key || got[i].Key != key {
								t.Fatalf("step %d: Probe(%d) surfaced key %d", step, key, got[i].Key)
							}
						}
					case opProbeBatch:
						// Off the chunk boundary most of the time.
						probes := make([]Tuple, 1+rng.Intn(3*walkChunk))
						var want []Tuple
						var wantPairs [][2]uint64
						for i := range probes {
							probes[i] = Tuple{Rel: matrix.SideR, Key: probeKey(), Size: 8, Seq: uint64(1e12) + uint64(i)}
							want = append(want, ref.byKey[probes[i].Key]...)
							for _, s := range ref.byKey[probes[i].Key] {
								wantPairs = append(wantPairs, [2]uint64{probes[i].Seq, s.Seq})
							}
						}
						var pairs []Pair
						h.ProbeBatchCollect(probes, matrix.SideR, pred, &pairs)
						got := make([]Tuple, 0, len(pairs))
						for _, pr := range pairs {
							if pr.R.Key != pr.S.Key || pr.R.Rel != matrix.SideR {
								t.Fatalf("step %d: batch probe paired %+v with %+v", step, pr.R, pr.S)
							}
							got = append(got, pr.S)
						}
						// The same stored tuple may answer several probes
						// of one run: compare as multisets of (probe, seq).
						if msg := exact.Diff(seqKeys(pairs), wantPairs); msg != "" {
							t.Fatalf("step %d: batch probe: %s", step, msg)
						}
					case opRetain:
						// U is per tuple, so chains are thinned, not only
						// dropped whole.
						keep := randomTop(rng)
						if hr, rr := h.Retain(keep), ref.retain(func(tp Tuple) bool { return keep.Has(tp.U) }); hr != rr {
							t.Fatalf("step %d: Retain removed %d, reference %d", step, hr, rr)
						}
					case opMerge:
						src := NewHashIndex()
						run := mkRun(rng.Intn(1200))
						src.InsertBatch(run)
						ref.insert(run...)
						h.MergeFrom(src)
						// Every segment here is a frozen own index: a merge
						// folds them once a probe would walk too many.
						if h.dirs() > maxDirs {
							t.Fatalf("step %d: a merge left %d slot indexes, bound %d", step, h.dirs(), maxDirs)
						}
					}
					if h.Len() != ref.n || h.Bytes() != ref.bytes {
						t.Fatalf("step %d (op %d): Len/Bytes %d/%d, reference %d/%d",
							step, op, h.Len(), h.Bytes(), ref.n, ref.bytes)
					}
					if step%100 == 99 {
						checkStore(t, fmt.Sprintf("step %d", step), h)
					}
				}
				for op, n := range afterGrowth {
					if n == 0 {
						t.Errorf("operation %d never ran right after a forced growth", op)
					}
				}

				// Final sweep: structure, full contents, every key.
				checkStore(t, "final", h)
				var all, want []Tuple
				h.Scan(func(tp Tuple) bool { all = append(all, tp); return true })
				for key, ts := range ref.byKey {
					want = append(want, ts...)
					var got []Tuple
					h.Probe(Tuple{Rel: matrix.SideR, Key: key}, func(s Tuple) { got = append(got, s) })
					sameBySeq(t, fmt.Sprintf("final Probe(%d)", key), got, ts)
				}
				sameBySeq(t, "final Scan", all, want)
			})
		}
	}
}
