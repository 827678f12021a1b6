package join

import (
	"math/rand"
	"runtime"
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
			case r < 88: // Reserve hint (zero, exact, or a 2x overshoot)
				hint := 0
				switch rng.Intn(3) {
				case 1:
					hint = h.Len()
				case 2:
					hint = 2*h.Len() + 100
				}
				h.Reserve(hint)
				ref.Reserve(hint)
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

// TestHashIndexMergeFrom exercises the chunk-adopting bulk merge with
// the destination arena ending on and off block boundaries (including
// the empty destination): the (chunk,pos) offset encoding must keep
// every adopted tuple addressable in all cases. The donor comes in the
// two shapes adoption meets: a built index, whose chain columns name
// its own chunk indexes and must be rewritten, and a bare decoded arena
// (snapshot restore, a migration block frame), which has no chain
// columns at all until the merge allocates them.
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
			src = &HashIndex{arena: readArena(rd), bytes: src.bytes}
			if rd.err != nil {
				t.Fatal(rd.err)
			}
			if len(src.chains) != 0 {
				t.Fatal("a decoded arena carries chain columns: they are derived state")
			}
		}

		h.MergeFrom(src)
		checkChains(t, "merged", h)
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
		checkChains(t, "merged, then extended", h)
	}
}

// checkChains verifies the derived state of a hash index structurally,
// both directories included: every occupied slot's tag is its key's,
// every chain holds one key only and descends strictly in arena offset
// (newest first), no key owns two slots, the slot count is h.used, and
// the chains together — the directory's, and each segment's below its
// watermark — cover exactly the stored tuples.
func checkChains(t *testing.T, label string, h *HashIndex) {
	t.Helper()
	owner := map[int64]bool{}
	linked, slots := 0, 0
	for _, dir := range [2][]dslot{h.slots, h.old[min(h.migPos, len(h.old)):]} {
		for _, s := range dir {
			if s.head == 0 {
				continue
			}
			slots++
			key := h.arena.keyAt(int32(s.head - 1))
			if s.tag != tagOf(key) {
				t.Fatalf("%s: slot of key %d carries tag %#x, want %#x", label, key, s.tag, tagOf(key))
			}
			if owner[key] {
				t.Fatalf("%s: key %d owns two slots", label, key)
			}
			owner[key] = true
			for l, prev := s.head, uint32(0); l != 0; {
				off := int32(l - 1)
				if prev != 0 && l >= prev {
					t.Fatalf("%s: chain of key %d runs %d -> %d: not newest-first", label, key, prev-1, off)
				}
				if k := h.arena.keyAt(off); k != key {
					t.Fatalf("%s: chain of key %d holds a tuple of key %d", label, key, k)
				}
				linked++
				prev, l = l, h.chains[off>>arenaShift][off&(arenaChunk-1)]
			}
		}
	}
	for i := range h.segs {
		linked += checkSegment(t, label, &h.segs[i])
	}
	if slots != h.used || linked != h.Len() {
		t.Fatalf("%s: %d slots link %d tuples; index counts %d keys, %d tuples", label, slots, linked, h.used, h.Len())
	}
}

// checkSegment is checkChains for the rows a segment serves: every
// chain of its slot index holds one key and descends strictly in
// position, and no key owns two slots. It returns how many rows below
// the watermark the chains link.
func checkSegment(t *testing.T, label string, s *segment) int {
	t.Helper()
	r := s.reader()
	owner := map[int64]bool{}
	linked := 0
	for _, w := range r.d.slots {
		if w == 0 {
			continue
		}
		key := r.entry(uint32(w) - 1).c.key[(uint32(w)-1)&(arenaChunk-1)]
		if uint32(w>>32) != tagOf(key) || owner[key] {
			t.Fatalf("%s: segment slot of key %d carries tag %#x or a second slot", label, key, uint32(w>>32))
		}
		owner[key] = true
		for l, prev := uint32(w), uint32(0); l != 0; {
			pos := l - 1
			if prev != 0 && l >= prev {
				t.Fatalf("%s: segment chain of key %d runs %d -> %d: not newest-first", label, key, prev-1, pos)
			}
			e := r.entry(pos)
			if k := e.c.key[pos&(arenaChunk-1)]; k != key {
				t.Fatalf("%s: segment chain of key %d holds a tuple of key %d", label, key, k)
			}
			if pos < s.w {
				linked++
			}
			prev, l = l, e.next[pos&(arenaChunk-1)]
		}
	}
	return linked
}

// buildMidRehash grows a hash index (mirrored into a scan-index
// reference) with distinct keys until an incremental rehash is
// mid-drain, then layers duplicates on top — scattered ones, and a
// 40-long chain on one key — so prepends to slots still resident in the
// draining directory, and their later migration head and all, are both
// exercised.
func buildMidRehash(t *testing.T, seed int64) (*HashIndex, *ScanIndex) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	h := NewHashIndex()
	ref := NewScanIndex()
	seq := uint64(0)
	ins := func(key int64) {
		seq++
		tp := Tuple{Rel: matrix.SideS, Key: key, Size: 8, Seq: seq, U: hashKey(int64(seq))}
		if rng.Intn(5) == 0 {
			tp.Payload = []byte{byte(seq)}
		}
		h.Insert(tp)
		ref.Insert(tp)
	}
	for key := int64(0); ; key++ {
		ins(key)
		// Distinct keys eventually trip the load threshold; stop while
		// the old directory is still draining, once it is big enough
		// that the duplicate layer below cannot finish the drain.
		if key > 1<<16 {
			t.Fatal("never entered a mid-rehash state")
		}
		if h.rehashing() && len(h.old) > 64*rehashStep {
			break
		}
	}
	// Duplicates of keys resident in the draining directory append to
	// it in place — the mid-rehash path the two-directory scheme must
	// keep consistent.
	distinct := int64(h.Len())
	for i := 0; i < 50 && h.rehashing(); i++ {
		ins(rng.Int63n(distinct))
	}
	// The slots migrate in index order, so the key whose old-directory
	// slot is last in line is still resident there for the whole layer.
	last := len(h.old) - 1
	for h.old[last].head == 0 {
		last--
	}
	resident := h.arena.keyAt(int32(h.old[last].head - 1))
	for i := 0; i < 40; i++ {
		ins(resident)
	}
	if !h.rehashing() {
		t.Fatal("duplicate layer drained the rehash; shrink it")
	}
	if got := h.old[last].head; h.arena.keyAt(int32(got-1)) != resident || h.lookup(tagOf(resident), resident) != got {
		t.Fatal("duplicates of an old-resident key were not prepended in the draining directory")
	}
	return h, ref
}

// assertSameContents compares the hash index against the scan-index
// reference via Scan, Len/Bytes, and per-key probes.
func assertSameContents(t *testing.T, label string, h *HashIndex, ref *ScanIndex) {
	t.Helper()
	checkChains(t, label, h)
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

// TestHashIndexMidRehash pins every directory operation at the state
// the incremental growth scheme introduces: an old directory mid-drain
// alongside the new one. Scans, probes, Retain rebuilds, Reserve
// (which force-drains), and MergeFrom in both roles must all behave as
// if the rehash had never been split across inserts.
func TestHashIndexMidRehash(t *testing.T) {
	t.Run("scan-probe", func(t *testing.T) {
		h, ref := buildMidRehash(t, 1)
		assertSameContents(t, "mid-rehash", h, ref)
	})
	t.Run("retain", func(t *testing.T) {
		h, ref := buildMidRehash(t, 2)
		keep := matrix.Top{Shift: 63, Val: 1}
		if hr, rr := h.Retain(keep), retainRef(ref, keep); hr != rr {
			t.Fatalf("Retain removed %d, reference %d", hr, rr)
		}
		assertSameContents(t, "after retain", h, ref)
	})
	t.Run("reserve-force-drain", func(t *testing.T) {
		h, ref := buildMidRehash(t, 3)
		// Reserving past the current size force-drains the in-flight
		// rehash and starts a fresh incremental one toward the larger
		// directory; contents must be unaffected at every point.
		h.Reserve(4 * h.Len())
		ref.Reserve(4 * ref.Len())
		assertSameContents(t, "after reserve", h, ref)
		for h.rehashing() {
			// Drive the new drain to completion through ordinary inserts.
			tp := Tuple{Rel: matrix.SideS, Key: int64(h.Len()), Size: 8, Seq: uint64(h.Len())}
			h.Insert(tp)
			ref.Insert(tp)
		}
		assertSameContents(t, "after drain", h, ref)
	})
	t.Run("merge-into-midrehash", func(t *testing.T) {
		h, ref := buildMidRehash(t, 4)
		src := NewHashIndex()
		rng := rand.New(rand.NewSource(40))
		for i := 0; i < arenaChunk+33; i++ {
			tp := Tuple{Rel: matrix.SideS, Key: rng.Int63n(512), Size: 8, Seq: uint64(1e6) + uint64(i)}
			src.Insert(tp)
			ref.Insert(tp)
		}
		h.MergeFrom(src)
		assertSameContents(t, "merged into mid-rehash dst", h, ref)
	})
	t.Run("merge-from-midrehash", func(t *testing.T) {
		src, ref := buildMidRehash(t, 5)
		h := NewHashIndex()
		rng := rand.New(rand.NewSource(50))
		for i := 0; i < arenaChunk/2; i++ {
			tp := Tuple{Rel: matrix.SideS, Key: rng.Int63n(512), Size: 8, Seq: uint64(2e6) + uint64(i)}
			h.Insert(tp)
			ref.Insert(tp)
		}
		h.MergeFrom(src)
		assertSameContents(t, "adopted mid-rehash src", h, ref)
	})
}

// TestHashIndexProbeBatchStride pins the pipelined walk behind
// ProbeBatchCollect: probe runs shorter than, equal to and longer than
// walkChunk (so full chunks and short tail chunks both run), with
// lengths off the chunk boundary, keys mixing first-slot hits, collided
// chains, spilled duplicate buckets, and misses — checked against the
// scan-index reference both on a settled directory and mid-rehash
// (where an empty new-directory slot must fall back to the draining
// old one).
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
	t.Run("mid-rehash", func(t *testing.T) {
		h, ref := buildMidRehash(t, 9)
		rng := rand.New(rand.NewSource(902))
		domain := int64(h.Len())
		for _, n := range []int{walkChunk, 2*walkChunk + 3, 512} {
			if !h.rehashing() {
				t.Fatal("rehash drained before the chunked probes ran")
			}
			check(t, h, ref, mkProbes(rng, n, domain))
		}
	})
}

// TestHashIndexReserveHints drives the same stream through indexes
// reserved with nothing, the exact cardinality, and a large
// overestimate (plus a mid-stream re-reserve), checking contents stay
// identical to the unreserved reference: a hint may only move
// allocations around, never change semantics. Where the hint covers the
// stream the chain columns and the directory are in place before the
// first insert, and ingest allocates only the arena blocks, which
// Reserve never preallocates (a store fed by shared windows would never
// fill them).
func TestHashIndexReserveHints(t *testing.T) {
	const n = 3000
	for _, tc := range []struct {
		name string
		pre  int
		mid  int
	}{
		{"zero", 0, 0},
		{"exact", n, 0},
		{"over", 4 * n, 0},
		{"midstream", 0, 2 * n},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(77))
			h := NewHashIndex()
			ref := NewScanIndex()
			h.Reserve(tc.pre)
			if len(h.arena.chunks) != 0 {
				t.Fatal("Reserve preallocated arena blocks")
			}
			if want := (tc.pre + arenaChunk - 1) / arenaChunk; len(h.spare) != min(want, maxReserve/arenaChunk) {
				t.Fatalf("Reserve(%d) stocked %d chain columns, want %d", tc.pre, len(h.spare), want)
			}
			stream := make([]Tuple, n)
			for i := range stream {
				stream[i] = Tuple{Rel: matrix.SideS, Key: rng.Int63n(2000), Size: 8, Seq: uint64(i + 1)}
				ref.Insert(stream[i])
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i, tp := range stream {
				h.Insert(tp)
				if tc.mid != 0 && i == n/2 {
					h.Reserve(tc.mid)
				}
			}
			runtime.ReadMemStats(&after)
			blocks := uint64(len(h.arena.chunks))
			if got := after.Mallocs - before.Mallocs; tc.pre >= n && got != blocks && !raceEnabled {
				t.Errorf("ingest of %d tuples under Reserve(%d) made %d allocations for %d blocks", n, tc.pre, got, blocks)
			}
			assertSameContents(t, tc.name, h, ref)
		})
	}
}
