package join

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/matrix"
)

// eqTuple compares two tuples field by field, payload bytes included
// (the columnar arena stores payloads out of line, so the tests must
// verify they survive storage, adoption, and rebuilds).
func eqTuple(a, b Tuple) bool {
	return a.Rel == b.Rel && a.Key == b.Key && a.Aux == b.Aux &&
		a.Size == b.Size && a.U == b.U && a.Seq == b.Seq && a.Dummy == b.Dummy &&
		string(a.Payload) == string(b.Payload)
}

// sortTuples orders a tuple multiset deterministically for comparison.
func sortTuples(ts []Tuple) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Key != ts[j].Key {
			return ts[i].Key < ts[j].Key
		}
		return ts[i].Seq < ts[j].Seq
	})
}

// TestHashIndexMatchesScanIndexReference is the safety net for the
// open-addressed index rewrite: it drives the hash index and the
// brute-force scan index through the same randomized tuple stream —
// single and batched inserts, probes, Retain discards, and Scan
// interleavings — and asserts the equi-join output (and all accounted
// state) stays identical throughout. The scan index enumerates every
// stored tuple on probe, so filtering its candidates by key equality
// is the reference equi-join semantics.
func TestHashIndexMatchesScanIndexReference(t *testing.T) {
	pred := EquiJoin("prop", nil)
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		h := NewHashIndex()
		ref := NewScanIndex()
		var seq uint64
		// A small key domain forces long per-key chains; a larger one
		// exercises directory growth. Alternate per trial.
		domain := int64(12)
		if trial%2 == 1 {
			domain = 4096
		}
		mk := func() Tuple {
			seq++
			tp := Tuple{Rel: matrix.SideS, Key: rng.Int63n(domain), Size: 8, Seq: seq, U: hashKey(int64(seq))}
			// A quarter of the tuples carry a payload, exercising the
			// arena's lazily allocated out-of-line payload column.
			if rng.Intn(4) == 0 {
				tp.Payload = []byte{byte(seq), byte(seq >> 8), byte(tp.Key)}
			}
			return tp
		}
		probeBoth := func(key int64) {
			probe := Tuple{Rel: matrix.SideR, Key: key, Size: 8}
			var got, want []Tuple
			h.Probe(probe, func(s Tuple) {
				if !pred.Matches(probe, s) {
					t.Fatalf("trial %d: hash probe(%d) surfaced non-matching key %d", trial, key, s.Key)
				}
				got = append(got, s)
			})
			ref.Probe(probe, func(s Tuple) {
				if pred.Matches(probe, s) {
					want = append(want, s)
				}
			})
			sortTuples(got)
			sortTuples(want)
			if len(got) != len(want) {
				t.Fatalf("trial %d: probe(%d) matched %d tuples, reference %d", trial, key, len(got), len(want))
			}
			for i := range got {
				if !eqTuple(got[i], want[i]) {
					t.Fatalf("trial %d: probe(%d)[%d] = %+v, reference %+v", trial, key, i, got[i], want[i])
				}
			}
		}
		for op := 0; op < 1500; op++ {
			switch r := rng.Intn(100); {
			case r < 40: // single insert
				tp := mk()
				h.Insert(tp)
				ref.Insert(tp)
			case r < 55: // batched insert
				batch := make([]Tuple, 1+rng.Intn(24))
				for i := range batch {
					batch[i] = mk()
				}
				h.InsertBatch(batch)
				ref.InsertBatch(batch)
			case r < 80: // probe a key (present or absent)
				probeBoth(rng.Int63n(domain + 4))
			case r < 85: // batched probe of several keys (the collect form)
				probes := make([]Tuple, 1+rng.Intn(8))
				for i := range probes {
					probes[i] = Tuple{Rel: matrix.SideR, Key: rng.Int63n(domain + 4), Size: 8, Seq: uint64(1e9) + uint64(i)}
				}
				var got, want []Pair
				h.ProbeBatchCollect(probes, matrix.SideR, pred, &got)
				ref.ProbeBatchCollect(probes, matrix.SideR, pred, &want)
				less := func(hs []Pair) func(a, b int) bool {
					return func(a, b int) bool {
						if hs[a].R.Seq != hs[b].R.Seq {
							return hs[a].R.Seq < hs[b].R.Seq
						}
						return hs[a].S.Seq < hs[b].S.Seq
					}
				}
				sort.Slice(got, less(got))
				sort.Slice(want, less(want))
				if len(got) != len(want) {
					t.Fatalf("trial %d: batch probe matched %d, reference %d", trial, len(got), len(want))
				}
				for i := range got {
					if !eqTuple(got[i].R, want[i].R) || !eqTuple(got[i].S, want[i].S) {
						t.Fatalf("trial %d: batch probe hit %d: %+v vs %+v", trial, i, got[i], want[i])
					}
				}
			case r < 93: // interleaved Scan: full contents must agree
				var got, want []Tuple
				h.Scan(func(tp Tuple) bool { got = append(got, tp); return true })
				ref.Scan(func(tp Tuple) bool { want = append(want, tp); return true })
				sortTuples(got)
				sortTuples(want)
				if len(got) != len(want) {
					t.Fatalf("trial %d: scan found %d tuples, reference %d", trial, len(got), len(want))
				}
				for i := range got {
					if !eqTuple(got[i], want[i]) {
						t.Fatalf("trial %d: scan[%d] = %+v, reference %+v", trial, i, got[i], want[i])
					}
				}
			default: // Retain a random routing partition (a migration discard)
				keep := randomTop(rng)
				if hr, rr := h.Retain(keep), retainRef(ref, keep); hr != rr {
					t.Fatalf("trial %d: Retain removed %d, reference %d", trial, hr, rr)
				}
			}
			if h.Len() != ref.Len() || h.Bytes() != ref.Bytes() {
				t.Fatalf("trial %d: Len/Bytes %d/%d diverged from reference %d/%d",
					trial, h.Len(), h.Bytes(), ref.Len(), ref.Bytes())
			}
		}
	}
}

// TestHashIndexMergeFrom exercises the bulk merge with the destination
// arena ending on and off block boundaries (including the empty
// destination): every adopted tuple must land in the destination's own
// index, whatever either arena's fill. The donor comes in the two
// shapes adoption meets: a built index, whose own index is dropped, and
// a bare decoded arena (snapshot restore, a migration block frame),
// which has none.
func TestHashIndexMergeFrom(t *testing.T) {
	for _, bare := range []bool{false, true} {
		testHashIndexMergeFrom(t, bare)
	}
}

func testHashIndexMergeFrom(t *testing.T, bare bool) {
	for _, dstN := range []int{0, arenaChunk, arenaChunk / 3, 2*arenaChunk + 17} {
		h := NewHashIndex()
		ref := NewScanIndex()
		seq := uint64(0)
		add := func(idx Index, n int, rng *rand.Rand) {
			for i := 0; i < n; i++ {
				seq++
				tp := Tuple{Rel: matrix.SideS, Key: rng.Int63n(64), Size: 8, Seq: seq}
				if rng.Intn(4) == 0 {
					tp.Payload = []byte{byte(seq), byte(seq >> 8)}
				}
				idx.Insert(tp)
			}
		}
		rng := rand.New(rand.NewSource(int64(dstN)))
		for i := 0; i < dstN; i++ {
			seq++
			tp := Tuple{Rel: matrix.SideS, Key: rng.Int63n(64), Size: 8, Seq: seq}
			h.Insert(tp)
			ref.Insert(tp)
		}
		src := NewHashIndex()
		srcN := arenaChunk + 99
		add(src, srcN, rng)
		src.Scan(func(tp Tuple) bool { ref.Insert(tp); return true })
		if bare {
			rd := &snapReader{data: appendArena(nil, &src.arena)}
			recs, _ := readBlocks(rd)
			if rd.err != nil {
				t.Fatal(rd.err)
			}
			src = &HashIndex{bytes: src.bytes}
			writeBlocks(recs, &src.own, &src.arena)
		}

		h.MergeFrom(src)
		checkStore(t, "merged", h)
		if h.Len() != dstN+srcN {
			t.Fatalf("dstN=%d: merged Len %d, want %d", dstN, h.Len(), dstN+srcN)
		}
		if h.Bytes() != ref.Bytes() {
			t.Fatalf("dstN=%d: merged Bytes %d, want %d", dstN, h.Bytes(), ref.Bytes())
		}
		for key := int64(0); key < 68; key++ {
			probe := Tuple{Rel: matrix.SideR, Key: key}
			var got, want []Tuple
			h.Probe(probe, func(s Tuple) { got = append(got, s) })
			ref.Probe(probe, func(s Tuple) {
				if s.Key == key {
					want = append(want, s)
				}
			})
			sortTuples(got)
			sortTuples(want)
			if len(got) != len(want) {
				t.Fatalf("dstN=%d: probe(%d) matched %d, want %d", dstN, key, len(got), len(want))
			}
			for i := range got {
				if !eqTuple(got[i], want[i]) {
					t.Fatalf("dstN=%d: probe(%d)[%d] mismatch", dstN, key, i)
				}
			}
		}
		// Inserts after a merge must keep extending the adopted arena.
		add(h, 10, rng)
		if h.Len() != dstN+srcN+10 {
			t.Fatalf("dstN=%d: post-merge inserts broke Len: %d", dstN, h.Len())
		}
		checkStore(t, "merged, then extended", h)
	}
}

// checkIndex verifies a slot index structurally, as of watermark w:
// every occupied word's tag is its key's and each key has one word,
// used counts the words, and every chain holds one key and runs
// newest-first over decreasing positions. It returns how many rows
// below w the chains link, which the caller holds against the rows the
// index should hold (checkStore).
func checkIndex(t *testing.T, label string, x *SlotIndex, w uint32) int {
	t.Helper()
	return checkKept(t, label, x, w, keepSet{})
}

// checkKept is checkIndex for a reader that keeps the rows keep holds:
// it counts only those.
func checkKept(t *testing.T, label string, x *SlotIndex, w uint32, keep keepSet) int {
	t.Helper()
	r := x.reader(w, keep)
	owner := map[int64]bool{}
	linked, words := 0, 0
	for _, s := range r.d.slots {
		if s == 0 {
			continue
		}
		words++
		pos := uint32(s) - 1
		key := r.entry(pos).c.key[pos&(arenaChunk-1)]
		if tag := uint32(s >> 32); tag != tagOf(key) {
			t.Fatalf("%s: slot of key %d carries tag %#x, want %#x", label, key, tag, tagOf(key))
		}
		if owner[key] {
			t.Fatalf("%s: key %d owns two slots", label, key)
		}
		owner[key] = true
		for l, prev := uint32(s), uint32(0); l != 0; {
			pos := l - 1
			if prev != 0 && l >= prev {
				t.Fatalf("%s: chain of key %d runs %d -> %d: not newest-first", label, key, prev-1, pos)
			}
			e := r.entry(pos)
			row := int32(pos & (arenaChunk - 1))
			if k := e.c.key[row]; k != key {
				t.Fatalf("%s: chain of key %d holds a tuple of key %d", label, key, k)
			}
			if l <= w && keep.has(e.c.uAt(row)) {
				linked++
			}
			prev, l = l, e.next[row]
		}
	}
	if words != x.used {
		t.Fatalf("%s: %d words, index counts %d keys", label, words, x.used)
	}
	return linked
}

// kept counts the rows of v its filter keeps.
func (v *view) kept() int {
	var buf [arenaChunk]int32
	return len(v.rows(&buf))
}

// checkViewCounts checks that every view of a records the rows its
// filter keeps (view.n, which record sizes and the compaction rule read
// instead of u), and that the arena's count is their sum.
func checkViewCounts(t *testing.T, label string, a *tupleArena) {
	t.Helper()
	sum := 0
	for i := range a.chunks {
		v := &a.chunks[i]
		if k := v.kept(); int(v.n) != k {
			t.Fatalf("%s: view %d records %d kept rows, its filter keeps %d", label, i, v.n, k)
		}
		sum += int(v.n)
	}
	if sum != a.n {
		t.Fatalf("%s: views keep %d rows, arena counts %d", label, sum, a.n)
	}
}

// checkStore runs checkIndex on every index of a hash store — its own,
// and each segment's slot index as of the segment's watermark, through
// its filter — and checks that each links exactly the rows the views
// naming it keep, so that together they link the stored tuples once.
func checkStore(t *testing.T, label string, h *HashIndex) {
	t.Helper()
	want := map[*SlotIndex]int{}
	for i := range h.arena.chunks {
		v := &h.arena.chunks[i]
		if v.ix == nil {
			t.Fatalf("%s: view %d names no slot index", label, i)
		}
		want[v.ix] += v.kept()
	}
	check := func(name string, x *SlotIndex, w uint32, keep keepSet) {
		if n := checkKept(t, label+" ("+name+")", x, w, keep); n != want[x] {
			t.Fatalf("%s: the %s links %d tuples, its views keep %d", label, name, n, want[x])
		}
		delete(want, x)
	}
	check("own index", h.own.ix, allRows, keepSet{})
	for i := range h.segs {
		check(fmt.Sprintf("segment %d", i), h.segs[i].ix, h.segs[i].w, h.segs[i].keep)
	}
	if len(want) != 0 {
		t.Fatalf("%s: %d views name a slot index no probe reads", label, len(want))
	}
}

// forceGrowth runs the growth routine on h's own index between
// inserts: it re-places every word into a directory twice the size, as
// an insert into a full one does, or, once the directory is eight times
// the size its keys need, into that size, so growth forced every few
// steps keeps the directory bounded.
func forceGrowth(h *HashIndex) {
	x := h.own.ix
	n := len(x.cur.slots) // dirSlots(n) is twice n slots
	if n >= 8*dirSlots(x.used) {
		n = x.used
	}
	x.setDir(x.cur.grown(n))
}

// assertSameContents compares the hash index against the scan-index
// reference via Scan, Len/Bytes, and per-key probes.
func assertSameContents(t *testing.T, label string, h *HashIndex, ref *ScanIndex) {
	t.Helper()
	checkStore(t, label, h)
	if h.Len() != ref.Len() || h.Bytes() != ref.Bytes() {
		t.Fatalf("%s: Len/Bytes %d/%d vs reference %d/%d", label, h.Len(), h.Bytes(), ref.Len(), ref.Bytes())
	}
	var got, want []Tuple
	h.Scan(func(tp Tuple) bool { got = append(got, tp); return true })
	ref.Scan(func(tp Tuple) bool { want = append(want, tp); return true })
	sortTuples(got)
	sortTuples(want)
	for i := range got {
		if !eqTuple(got[i], want[i]) {
			t.Fatalf("%s: scan[%d] = %+v, reference %+v", label, i, got[i], want[i])
		}
	}
	keys := map[int64]bool{}
	ref.Scan(func(tp Tuple) bool { keys[tp.Key] = true; return true })
	keys[int64(len(keys))+7] = true // one guaranteed miss
	for key := range keys {
		probe := Tuple{Rel: matrix.SideR, Key: key, Size: 8}
		var g, w []Tuple
		h.Probe(probe, func(s Tuple) { g = append(g, s) })
		ref.Scan(func(s Tuple) bool {
			if s.Key == key {
				w = append(w, s)
			}
			return true
		})
		sortTuples(g)
		sortTuples(w)
		if len(g) != len(w) {
			t.Fatalf("%s: probe(%d) matched %d, reference %d", label, key, len(g), len(w))
		}
		for i := range g {
			if !eqTuple(g[i], w[i]) {
				t.Fatalf("%s: probe(%d)[%d] mismatch", label, key, i)
			}
		}
	}
}

// TestHashIndexProbeBatchStride pins the pipelined walk behind
// ProbeBatchCollect: probe runs shorter than, equal to and longer than
// walkChunk (so full chunks and short tail chunks both run), with
// lengths off the chunk boundary, keys mixing first-slot hits, collided
// chains, spilled duplicate buckets, and misses — checked against the
// scan-index reference.
func TestHashIndexProbeBatchStride(t *testing.T) {
	pred := EquiJoin("stride", nil)
	check := func(t *testing.T, h *HashIndex, ref *ScanIndex, probes []Tuple) {
		t.Helper()
		var got, want []Pair
		h.ProbeBatchCollect(probes, matrix.SideR, pred, &got)
		ref.ProbeBatchCollect(probes, matrix.SideR, pred, &want)
		less := func(hs []Pair) func(a, b int) bool {
			return func(a, b int) bool {
				if hs[a].R.Seq != hs[b].R.Seq {
					return hs[a].R.Seq < hs[b].R.Seq
				}
				return hs[a].S.Seq < hs[b].S.Seq
			}
		}
		sort.Slice(got, less(got))
		sort.Slice(want, less(want))
		if len(got) != len(want) {
			t.Fatalf("chunked probe matched %d pairs, reference %d", len(got), len(want))
		}
		for i := range got {
			if !eqTuple(got[i].R, want[i].R) || !eqTuple(got[i].S, want[i].S) {
				t.Fatalf("chunked probe pair %d: %+v vs %+v", i, got[i], want[i])
			}
		}
	}
	mkProbes := func(rng *rand.Rand, n int, domain int64) []Tuple {
		ps := make([]Tuple, n)
		for i := range ps {
			// domain+32 guarantees a healthy miss fraction.
			ps[i] = Tuple{Rel: matrix.SideR, Key: rng.Int63n(domain + 32), Size: 8, Seq: uint64(1e9) + uint64(i)}
		}
		return ps
	}
	t.Run("settled", func(t *testing.T) {
		rng := rand.New(rand.NewSource(901))
		h := NewHashIndex()
		ref := NewScanIndex()
		const domain = 64 // ~30 tuples per key: every hit walks a chain
		for i := 0; i < 2000; i++ {
			tp := Tuple{Rel: matrix.SideS, Key: rng.Int63n(domain), Size: 8, Seq: uint64(i + 1)}
			h.Insert(tp)
			ref.Insert(tp)
		}
		for _, n := range []int{walkChunk - 1, walkChunk, walkChunk + 1, 3*walkChunk + 5, 256} {
			check(t, h, ref, mkProbes(rng, n, domain))
		}
	})
}
