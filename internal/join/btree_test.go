package join

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/matrix"
)

// sortedRef is the reference of the ordered-index differential test:
// the stored tuples in key order, ties in insertion order.
type sortedRef struct {
	ts    []Tuple
	bytes int64
}

func (r *sortedRef) insert(ts ...Tuple) {
	for _, tp := range ts {
		i := sort.Search(len(r.ts), func(i int) bool { return r.ts[i].Key > tp.Key })
		r.ts = append(r.ts, Tuple{})
		copy(r.ts[i+1:], r.ts[i:])
		r.ts[i] = tp
		r.bytes += tp.Bytes()
	}
}

func (r *sortedRef) retain(keep func(Tuple) bool) int {
	kept := r.ts[:0]
	for _, tp := range r.ts {
		if keep(tp) {
			kept = append(kept, tp)
		} else {
			r.bytes -= tp.Bytes()
		}
	}
	removed := len(r.ts) - len(kept)
	r.ts = kept
	return removed
}

// pairs is the nested-loop answer for a run of probes of relation rel.
func (r *sortedRef) pairs(ps []Tuple, rel matrix.Side, p Predicate) []Pair {
	var out []Pair
	for _, probe := range ps {
		for _, s := range r.ts {
			pr := Pair{R: probe, S: s}
			if rel == matrix.SideS {
				pr = Pair{R: s, S: probe}
			}
			if p.Matches(pr.R, pr.S) {
				out = append(out, pr)
			}
		}
	}
	return out
}

// treeShape is what checkTree learned about an index's structure.
type treeShape struct {
	leafSpans  bool // some equal-key run crosses a leaf boundary
	innerSpans bool // ... and some crosses the boundary of two leaf parents
}

// checkTree verifies the index's structural invariants: every leaf at
// the same depth, keys sorted inside leaves and bounded by the
// separators around them, the leaf chain in tree order, unused child
// slots nil, and the node counters behind Footprint exact.
func checkTree(t *testing.T, label string, o *OrderedIndex) treeShape {
	t.Helper()
	var leaves []*ordLeaf
	var parents []*ordInner
	inners := 0
	var walk func(in *ordInner, depth int, lo, hi *int64)
	walk = func(in *ordInner, depth int, lo, hi *int64) {
		inners++
		if in.n < 1 || in.n > ordFan {
			t.Fatalf("%s: inner node holds %d children", label, in.n)
		}
		for i := 1; i < in.n-1; i++ {
			if in.keys[i] < in.keys[i-1] {
				t.Fatalf("%s: separators out of order: %v", label, in.keys[:in.n-1])
			}
		}
		for i := 0; i < ordFan; i++ {
			used := i < in.n
			if (in.kids[i] != nil) != (used && depth > 1) || (in.leaves[i] != nil) != (used && depth == 1) {
				t.Fatalf("%s: child slot %d of a depth-%d node with %d children is wrongly set", label, i, depth, in.n)
			}
		}
		for i := 0; i < in.n; i++ {
			clo, chi := lo, hi
			if i > 0 {
				clo = &in.keys[i-1]
			}
			if i < in.n-1 {
				chi = &in.keys[i]
			}
			if depth > 1 {
				walk(in.kids[i], depth-1, clo, chi)
				continue
			}
			l := in.leaves[i]
			for pos := 0; pos < l.n; pos++ {
				if (clo != nil && l.key[pos] < *clo) || (chi != nil && l.key[pos] > *chi) {
					t.Fatalf("%s: leaf key %d outside its separators", label, l.key[pos])
				}
			}
			leaves = append(leaves, l)
			parents = append(parents, in)
		}
	}
	if o.root != nil {
		walk(o.root, o.height, nil, nil)
	} else if o.head != nil {
		leaves = append(leaves, o.head)
		parents = append(parents, nil)
	}
	var shape treeShape
	n := 0
	l := o.head
	for i, want := range leaves {
		if l != want {
			t.Fatalf("%s: leaf chain diverges from the tree at leaf %d", label, i)
		}
		if l.n < 1 || l.n > ordLeafCap {
			t.Fatalf("%s: leaf %d holds %d tuples", label, i, l.n)
		}
		for pos := 1; pos < l.n; pos++ {
			if l.key[pos] < l.key[pos-1] {
				t.Fatalf("%s: leaf %d out of key order", label, i)
			}
		}
		if i > 0 {
			prev := leaves[i-1]
			if prev.key[prev.n-1] > l.key[0] {
				t.Fatalf("%s: leaf %d starts below its predecessor's last key", label, i)
			}
			if prev.key[prev.n-1] == l.key[0] {
				shape.leafSpans = true
				if parents[i] != parents[i-1] {
					shape.innerSpans = true
				}
			}
		}
		n += l.n
		l = l.next
	}
	if l != nil {
		t.Fatalf("%s: leaf chain runs past the tree's last leaf", label)
	}
	if n != o.n || len(leaves) != o.leaves || inners != o.inners {
		t.Fatalf("%s: tree holds %d tuples in %d leaves under %d inner nodes, counters say %d/%d/%d",
			label, n, len(leaves), inners, o.n, o.leaves, o.inners)
	}
	return shape
}

// TestOrderedIndexDifferential drives one OrderedIndex and a sorted
// slice through random interleavings of every operation that shapes
// the tree — Insert, InsertBatch, Probe, ProbeBatchCollect, Retain,
// MergeFrom and a snapshot round trip (encode, parse, bulk restore) —
// over few distinct keys, so equal-key runs span leaf splits and the
// splits of the leaves' parents, with dummies among stored tuples and
// probes and a payload on every 7th tuple. It runs at widths 0 and 8,
// each with and without a residual; the residual-free band is the
// ProbeBatchCollect path that never calls Predicate.Matches. Pairs are
// compared by content, Scan must return the reference exactly — key
// order, ties in insertion order — and the tree's structure is checked
// throughout.
func TestOrderedIndexDifferential(t *testing.T) {
	residual := func(r, s Tuple) bool { return (r.Aux^s.Aux)&3 != 0 }
	for _, width := range []int64{0, 8} {
		for _, withResidual := range []bool{false, true} {
			t.Run(fmt.Sprintf("width=%d/residual=%v", width, withResidual), func(t *testing.T) {
				pred := BandJoin("diff", width, nil)
				if withResidual {
					pred.Residual = residual
				}
				stored := matrix.SideS
				if withResidual {
					stored = matrix.SideR
				}
				rng := rand.New(rand.NewSource(width*10 + int64(len(pred.Name))))
				o := NewOrderedIndex(width)
				ref := &sortedRef{}
				var seq uint64
				nextKey := func() int64 {
					if rng.Intn(10) == 0 {
						return rng.Int63n(1 << 20) // mostly distinct
					}
					return int64(rng.Intn(24)) * 5 // 24 hot keys
				}
				mk := func(rel matrix.Side) Tuple {
					seq++
					tp := Tuple{Rel: rel, Key: nextKey(), Aux: int64(seq * 3), Size: int32(8 + seq%5), U: hashKey(int64(seq)), Seq: seq}
					if seq%7 == 0 {
						tp.Payload = []byte{byte(seq), byte(tp.Key), 0xab}
					}
					if rng.Intn(10) == 0 {
						tp.Dummy = true
					}
					return tp
				}
				mkRun := func(n int, rel matrix.Side) []Tuple {
					run := make([]Tuple, n)
					for i := range run {
						run[i] = mk(rel)
					}
					return run
				}

				const (
					opInsert = iota
					opInsertBatch
					opProbe
					opProbeBatch
					opRetain
					opMerge
					opSnapshot
					numOps
				)
				var ran [numOps]int
				var shape treeShape
				maxHeight := 0
				for step := 0; step < 800; step++ {
					var op int
					switch r := rng.Intn(100); {
					case r < 30:
						op = opInsert
					case r < 50:
						op = opInsertBatch
					case r < 62:
						op = opProbe
					case r < 80:
						op = opProbeBatch
					case r < 84:
						op = opRetain
					case r < 94:
						op = opMerge
					default:
						op = opSnapshot
					}
					ran[op]++
					switch op {
					case opInsert:
						tp := mk(stored)
						o.Insert(tp)
						ref.insert(tp)
					case opInsertBatch:
						run := mkRun(1+rng.Intn(40), stored)
						o.InsertBatch(run)
						ref.insert(run...)
					case opProbe:
						probe := mk(stored.Other())
						var got []Tuple
						o.Probe(probe, func(s Tuple) { got = append(got, s) })
						var want []Tuple
						for _, s := range ref.ts {
							if d := s.Key - probe.Key; d >= -width && d <= width {
								want = append(want, s)
							}
						}
						sameBySeq(t, fmt.Sprintf("step %d: Probe(%d)", step, probe.Key), got, want)
					case opProbeBatch:
						probes := mkRun(1+rng.Intn(16), stored.Other())
						var got []Pair
						o.ProbeBatchCollect(probes, stored.Other(), pred, &got)
						samePairs(t, fmt.Sprintf("step %d: ProbeBatchCollect", step), got, ref.pairs(probes, stored.Other(), pred))
					case opRetain:
						// Keep half or all: the tree must still grow tall
						// enough to exercise spans across leaf parents.
						keep := matrix.TopAll
						if rng.Intn(2) == 0 {
							keep = matrix.Top{Shift: 63, Val: rng.Uint64() >> 63}
						}
						if got, want := o.Retain(keep), ref.retain(func(tp Tuple) bool { return keep.Has(tp.U) }); got != want {
							t.Fatalf("step %d: Retain removed %d, reference %d", step, got, want)
						}
					case opMerge:
						src := NewOrderedIndex(width)
						srcRef := &sortedRef{}
						for k := rng.Intn(3); k > 0; k-- {
							run := mkRun(rng.Intn(400), stored)
							src.InsertBatch(run)
							srcRef.insert(run...)
						}
						if rng.Intn(4) == 0 {
							// Merging into an empty index takes the
							// donor's tree over as it stands.
							dst := NewOrderedIndex(width)
							dst.MergeFrom(o)
							if o.Len() != 0 {
								t.Fatalf("step %d: a merged-from index still holds %d tuples", step, o.Len())
							}
							o = dst
						}
						o.MergeFrom(src)
						ref.insert(srcRef.ts...)
					case opSnapshot:
						enc := appendOrdered(nil, o)
						rec, err := parseSide(&snapReader{data: enc})
						if err != nil {
							t.Fatalf("step %d: parse ordered record: %v", step, err)
						}
						fresh := NewOrderedIndex(width)
						if err := installSide(fresh, rec); err != nil {
							t.Fatalf("step %d: restore ordered record: %v", step, err)
						}
						o = fresh
					}
					if o.Len() != len(ref.ts) || o.Bytes() != ref.bytes {
						t.Fatalf("step %d (op %d): Len/Bytes %d/%d, reference %d/%d", step, op, o.Len(), o.Bytes(), len(ref.ts), ref.bytes)
					}
					if step%20 == 19 || op == opMerge || op == opRetain || op == opSnapshot {
						s := checkTree(t, fmt.Sprintf("step %d (op %d)", step, op), o)
						shape.leafSpans = shape.leafSpans || s.leafSpans
						shape.innerSpans = shape.innerSpans || s.innerSpans
						maxHeight = max(maxHeight, o.height)
						checkScan(t, fmt.Sprintf("step %d (op %d)", step, op), o, ref.ts)
					}
				}
				for op, n := range ran {
					if n == 0 {
						t.Errorf("operation %d never ran", op)
					}
				}
				if !shape.leafSpans || !shape.innerSpans || maxHeight < 2 {
					t.Errorf("equal-key runs spanned leaves %v, leaf parents %v; tallest tree %d inner levels, want >= 2",
						shape.leafSpans, shape.innerSpans, maxHeight)
				}
				checkTree(t, "final", o)
				checkScan(t, "final", o, ref.ts)
			})
		}
	}
}

// checkScan holds Scan to want exactly: same tuples, same order.
func checkScan(t *testing.T, label string, o *OrderedIndex, want []Tuple) {
	t.Helper()
	i := 0
	o.Scan(func(tp Tuple) bool {
		if i >= len(want) || !eqTuple(tp, want[i]) {
			t.Fatalf("%s: Scan position %d = %+v, reference %+v", label, i, tp, want[min(i, len(want)-1)])
		}
		i++
		return true
	})
	if i != len(want) {
		t.Fatalf("%s: Scan visited %d tuples, reference %d", label, i, len(want))
	}
}

// A band probe run writes its pairs straight into the caller's buffer:
// once the buffer is large enough, ProbeBatchCollect allocates nothing,
// with or without a residual.
func TestOrderedIndexProbeAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	o := NewOrderedIndex(8)
	for i := 0; i < 20_000; i++ {
		o.Insert(Tuple{Rel: matrix.SideS, Key: int64(i * 7919 % 5000), Seq: uint64(i + 1), Dummy: i%50 == 0})
	}
	probes := make([]Tuple, 40)
	for i := range probes {
		probes[i] = Tuple{Rel: matrix.SideR, Key: int64(i * 131), Seq: uint64(1e9) + uint64(i)}
	}
	for _, p := range []Predicate{BandJoin("plain", 8, nil), BandJoin("residual", 8, func(r, s Tuple) bool { return s.Seq%2 == 0 })} {
		out := make([]Pair, 0, 4096)
		run := func() {
			out = out[:0]
			o.ProbeBatchCollect(probes, matrix.SideR, p, &out)
		}
		run()
		if len(out) == 0 {
			t.Fatalf("%s: the probe run matched nothing", p.Name)
		}
		if n := testing.AllocsPerRun(20, run); n != 0 {
			t.Fatalf("%s: a probe run allocated %.1f times", p.Name, n)
		}
	}
}
