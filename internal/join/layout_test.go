package join

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/matrix"
)

// layoutSeed is the routing seed of the differential streams' derived
// rows.
const layoutSeed = 2014

// layoutStream is one row population of the block layout differential:
// a rule for each tuple's u and meta word, whether a line writer may be
// told its rows are derived, and which explicit columns its blocks
// need.
type layoutStream struct {
	name          string
	derived       bool // every row's U is UMix(layoutSeed, Seq)
	uCol, metaCol bool
	tuple         func(rng *rand.Rand, i int) Tuple
}

// layoutTuple is tuple i of a differential stream with u: alternating
// sides over 61 keys, Aux naming the tuple, a payload on every fifth.
func layoutTuple(i int, u uint64) Tuple {
	tp := Tuple{Rel: matrix.Side(i & 1), Key: int64(i*7919) % 61, Aux: int64(i), Seq: uint64(i + 1), Size: 8, U: u}
	if i%5 == 0 {
		tp.Payload = []byte{byte(i), byte(i >> 8), 0x5a}
	}
	return tp
}

func layoutStreams() []layoutStream {
	derived := func(i int) uint64 { return UMix(layoutSeed, uint64(i+1)) }
	return []layoutStream{
		{"u-zero", false, false, false, func(_ *rand.Rand, i int) Tuple { return layoutTuple(i, 0) }},
		{"derived", true, false, false, func(_ *rand.Rand, i int) Tuple { return layoutTuple(i, derived(i)) }},
		{"caller-U", false, true, false, func(rng *rand.Rand, i int) Tuple { return layoutTuple(i, rng.Uint64()) }},
		{"dummies", false, true, true, func(rng *rand.Rand, i int) Tuple {
			tp := layoutTuple(i, derived(i))
			if i%17 == 3 {
				// A reshuffler's padding: Seq 0, a drawn u.
				tp.Dummy, tp.Seq, tp.U = true, 0, rng.Uint64()
			}
			return tp
		}},
		{"mixed-size", true, false, true, func(_ *rand.Rand, i int) Tuple {
			tp := layoutTuple(i, derived(i))
			tp.Size = int32(i % 3 * 4)
			return tp
		}},
		{"mixed", false, true, true, func(rng *rand.Rand, i int) Tuple {
			// Stretches of each rule, so blocks of either kind occur.
			switch i / 200 % 4 {
			case 0:
				return layoutTuple(i, derived(i))
			case 1:
				return layoutTuple(i, 0)
			case 2:
				tp := layoutTuple(i, rng.Uint64())
				tp.Size = int32(rng.Intn(40))
				return tp
			}
			tp := layoutTuple(i, derived(i))
			tp.Dummy = i%9 == 0
			return tp
		}},
	}
}

// sameByAux requires got and want to hold the same tuples, every field
// equal, matched by Aux.
func sameByAux(t *testing.T, label string, got, want []Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tuples, want %d", label, len(got), len(want))
	}
	got, want = append([]Tuple(nil), got...), append([]Tuple(nil), want...)
	sort.Slice(got, func(i, j int) bool { return got[i].Aux < got[j].Aux })
	sort.Slice(want, func(i, j int) bool { return want[i].Aux < want[j].Aux })
	for i := range got {
		if !eqTuple(got[i], want[i]) || (got[i].Payload == nil) != (want[i].Payload == nil) {
			t.Fatalf("%s: tuple %+v, want %+v", label, got[i], want[i])
		}
	}
}

// checkLayoutState requires l to hold exactly want: every field of
// every stored tuple through Scan and through probe materialization,
// where each stored tuple must come back in every pair it makes, and
// the pairs must be those of a nested loop over want.
func checkLayoutState(t *testing.T, label string, l *Local, want []Tuple) {
	t.Helper()
	var stored []Tuple
	for _, side := range []matrix.Side{matrix.SideR, matrix.SideS} {
		l.Scan(side, func(tp Tuple) bool { stored = append(stored, tp); return true })
	}
	sameByAux(t, label+": Scan", stored, want)
	byAux := map[int64]Tuple{}
	for _, tp := range want {
		byAux[tp.Aux] = tp
	}
	for _, side := range []matrix.Side{matrix.SideR, matrix.SideS} {
		probes := make([]Tuple, 61)
		for k := range probes {
			probes[k] = Tuple{Rel: side, Key: int64(k), Aux: -1 - int64(k)}
		}
		var ps []Pair
		l.ProbeBatchCollect(probes, &ps)
		wantPairs := 0
		for _, tp := range want {
			if tp.Rel != side && !tp.Dummy {
				wantPairs++
			}
		}
		if len(ps) != wantPairs {
			t.Fatalf("%s: side %v probes made %d pairs, want %d", label, side, len(ps), wantPairs)
		}
		for _, p := range ps {
			s := p.S
			if side == matrix.SideS {
				s = p.R
			}
			if w := byAux[s.Aux]; !eqTuple(s, w) || (s.Payload == nil) != (w.Payload == nil) {
				t.Fatalf("%s: probe materialized %+v, stored %+v", label, s, w)
			}
		}
	}
}

// layoutColumns reports whether any block l's arenas view has an
// explicit u or meta column.
func layoutColumns(l *Local) (u, meta bool) {
	for _, side := range []matrix.Side{matrix.SideR, matrix.SideS} {
		for _, v := range l.Views(side) {
			c := v.Block.(*colChunk)
			u, meta = u || c.u != nil, meta || c.meta != nil
		}
	}
	return u, meta
}

// TestBlockLayoutDifferential writes u-zero, derived, caller-set U,
// dummy and mixed-Size rows — and stretches of all of them — through a
// store's own writer and through line writers shared by three stores,
// and requires every field, payload included, to read back unchanged
// through Scan and probe materialization, Retain's survivors,
// SelectInto's blocks by pointer and over a link, MergeFrom and
// AdoptBlocks, and a snapshot round trip. The blocks must hold u and
// meta columns only where the rows need them: a u-zero or derived
// population keeps 24 bytes a row, through every copy too.
func TestBlockLayoutDifferential(t *testing.T) {
	const n = 1300
	pred := EquiJoin("eq", nil)
	tops := []matrix.Top{{Shift: 63, Val: 0}, {Shift: 62, Val: 3}, matrix.TopAll, matrix.TopNone}
	for _, st := range layoutStreams() {
		rng := rand.New(rand.NewSource(65))
		stream := make([]Tuple, n)
		for i := range stream {
			stream[i] = st.tuple(rng, i)
		}
		sides := [2][]Tuple{}
		for _, tp := range stream {
			sides[tp.Rel] = append(sides[tp.Rel], tp)
		}
		builds := map[string]func(ts [2][]Tuple) *Local{
			"own": func(ts [2][]Tuple) *Local {
				l := NewLocal(pred)
				for _, side := range ts {
					for i := 0; i < len(side); i += 37 {
						l.InsertBatch(side[i:min(i+37, len(side))])
					}
				}
				return l
			},
			"line": func(ts [2][]Tuple) *Local {
				ls := []*Local{NewLocal(pred), NewLocal(pred), NewLocal(pred)}
				for _, side := range ts {
					var bw BlockWriter
					bw.Reset(len(ls), true, layoutSeed)
					for i := 0; i < len(side); i += 100 {
						run := side[i:min(i+100, len(side))]
						w, rest := bw.AppendPacked(run, st.derived)
						for _, l := range ls {
							l.InsertWindow(run[:w.Len()], w)
							l.InsertWindow(run[w.Len():], rest)
						}
					}
				}
				return ls[0]
			},
		}
		for _, mode := range []string{"own", "line"} {
			build := builds[mode]
			t.Run(st.name+"/"+mode, func(t *testing.T) {
				l := build(sides)
				checkLayoutState(t, "stored", l, stream)
				if u, meta := layoutColumns(l); u != st.uCol || meta != st.metaCol {
					t.Fatalf("blocks have u column %v, meta column %v; want %v, %v", u, meta, st.uCol, st.metaCol)
				}
				for _, keep := range tops {
					var want []Tuple
					for _, tp := range stream {
						if keep.Has(tp.U) {
							want = append(want, tp)
						}
					}
					label := fmt.Sprintf("shift=%d,val=%d", keep.Shift, keep.Val)

					l := build(sides)
					l.Retain(matrix.SideR, keep)
					l.Retain(matrix.SideS, keep)
					checkLayoutState(t, label+": Retain", l, want)
					if u, _ := layoutColumns(l); u && !st.uCol {
						t.Fatalf("%s: Retain's survivors gained a u column", label)
					}

					l = build(sides)
					var enc BlockEncoder
					var sets []*BlockSet
					for _, side := range []matrix.Side{matrix.SideR, matrix.SideS} {
						l.SelectInto(side, keep, &enc, 100, func() { sets = append(sets, enc.Seal()) })
					}
					sets = append(sets, enc.Seal())
					byPointer, overLink := NewLocal(pred), NewLocal(pred)
					for _, bs := range sets {
						dec, err := DecodeBlocks(appendSet(bs))
						if err != nil {
							t.Fatal(err)
						}
						byPointer.AdoptBlocks(bs)
						overLink.AdoptBlocks(dec)
					}
					checkLayoutState(t, label+": SelectInto by pointer", byPointer, want)
					checkLayoutState(t, label+": SelectInto over a link", overLink, want)
					if u, _ := layoutColumns(overLink); u && !st.uCol {
						t.Fatalf("%s: decoded blocks gained a u column", label)
					}
				}

				var halves [2][2][]Tuple
				for side, ts := range sides {
					halves[0][side], halves[1][side] = ts[:len(ts)/2], ts[len(ts)/2:]
				}
				merged := build(halves[0])
				merged.MergeFrom(build(halves[1]))
				checkLayoutState(t, "MergeFrom", merged, stream)

				restored := NewLocal(pred)
				if err := loadLocal(restored, encodeLocal(build(sides))); err != nil {
					t.Fatal(err)
				}
				checkLayoutState(t, "snapshot", restored, stream)
				if u, meta := layoutColumns(restored); u && !st.uCol || meta && !st.metaCol {
					t.Fatalf("restored blocks have u column %v, meta column %v", u, meta)
				}
			})
		}
	}
}

// TestSeedOfInvertsUMix: the seed a writer infers from a row's (u, seq)
// is the one that derives it.
func TestSeedOfInvertsUMix(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	for i := 0; i < 10000; i++ {
		seed, seq := rng.Uint64(), rng.Uint64()
		if i%3 == 0 {
			seed, seq = uint64(i), uint64(i/2)
		}
		if got := seedOf(UMix(seed, seq), seq); got != seed {
			t.Fatalf("seedOf(UMix(%#x, %#x)) = %#x", seed, seq, got)
		}
	}
}

// appendSet serializes a sealed block set as a link would carry it,
// leaving bs intact.
func appendSet(bs *BlockSet) []byte {
	var enc BlockEncoder
	enc.arenas, enc.bytes = bs.arenas, bs.bytes
	enc.count = bs.Tuples()
	return enc.AppendTo(nil)
}

// TestCaptureWhileOwnerAddsUMetaColumn: a store copies u-zero rows of
// one Size through its own writer, and a capture is taken; while
// another goroutine encodes the capture, the owner stores rows whose u
// and meta words its open block's header does not derive, which would
// give the block u and meta columns. The capture sealed the block, so
// they must land in a fresh block — the race detector flags a header
// written under the encoder — and the encoding must equal the state at
// the barrier.
func TestCaptureWhileOwnerAddsUMetaColumn(t *testing.T) {
	for _, pred := range []Predicate{EquiJoin("eq", nil), ThetaJoin("any", func(r, s Tuple) bool { return true })} {
		l := NewLocal(pred)
		want := NewLocal(pred)
		for i := 0; i < 100; i++ {
			tp := Tuple{Rel: matrix.SideS, Key: int64(i % 7), Size: 8, Seq: uint64(i + 1)}
			l.Insert(tp)
			want.Insert(tp)
		}
		c, _, _ := l.Capture(nil)
		enc := make(chan []byte)
		go func() { enc <- c.AppendTo(nil, nil) }()
		for i := 100; i < 200; i++ {
			l.Insert(Tuple{Rel: matrix.SideS, Key: int64(i % 7), Size: int32(i % 5), Seq: uint64(i + 1), U: uint64(i) * 0x9e3779b97f4a7c15})
		}
		got := NewLocal(pred)
		if err := loadLocal(got, <-enc); err != nil {
			t.Fatal(err)
		}
		if string(encodeLocal(got)) != string(encodeLocal(want)) {
			t.Fatalf("%s: the capture does not encode the state at the barrier", pred.Name)
		}
		views := l.Views(matrix.SideS)
		if len(views) != 2 || views[0].Block == views[1].Block || views[0].Hi != 100 || views[1].Lo != 0 {
			t.Fatalf("%s: the store views %+v, want rows [0, 100) of one block, then a fresh one", pred.Name, views)
		}
		if b := views[0].Block.(*colChunk); b.u != nil || b.meta != nil {
			t.Fatalf("%s: the captured block gained a u or meta column", pred.Name)
		}
		if b := views[1].Block.(*colChunk); b.u == nil || b.meta == nil {
			t.Fatalf("%s: the fresh block lacks the u or meta column its rows need", pred.Name)
		}
	}
}
