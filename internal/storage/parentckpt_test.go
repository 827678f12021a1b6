package storage

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/join"
	"repro/internal/matrix"
)

// The checkpoint blobs in testdata/parent_{full,delta}.ckpt were written
// by OperatorSnapshot.Encode of the commit before the barrier captured
// arena blocks by reference (joiners then serialized their stores into
// byte slices at the barrier and Encode concatenated them). They hold a
// J=4 operator state covering every kind of store payload:
//
//	joiner 0  equi, hash-indexed, every 7th tuple payload-carrying
//	joiner 1  theta, scan-indexed
//	joiner 2  equi under a memory budget: most tuples spilled
//	joiner 3  band, ordered-indexed (always a full record)
//
// full is generation 1 over tuples [0, fixtureFullN); delta is
// generation 2, taken against full's watermarks after tuples
// [fixtureFullN, fixtureDeltaN).
const fixtureFullN, fixtureDeltaN = 1100, 1400

// ckptFixtureTuple is tuple i of the fixture stream: alternating sides
// over 97 keys, every 7th with a payload, every 211th a dummy.
func ckptFixtureTuple(i int) join.Tuple {
	x := uint64(i+1) * 0x9e3779b97f4a7c15
	x ^= x >> 29
	tp := join.Tuple{Rel: matrix.Side(i & 1), Key: int64(x % 97), Aux: int64(i), Size: int32(8 + i%3), U: x, Seq: uint64(i + 1)}
	if i%7 == 0 {
		tp.Payload = []byte{byte(i), byte(i >> 8), 0xab}
	}
	if i%211 == 0 {
		tp.Dummy = true
	}
	return tp
}

// ckptFixtureStores builds the four joiners' empty stores; spill
// segments go to dir.
func ckptFixtureStores(dir string) []*Store {
	theta := func(r, s join.Tuple) bool { return (r.Key+s.Key)%5 == 0 }
	return []*Store{
		NewStore(join.EquiJoin("fx-hash", nil), Config{}),
		NewStore(join.ThetaJoin("fx-scan", theta), Config{}),
		NewStore(join.EquiJoin("fx-spill", nil), Config{CapBytes: 3000, Dir: dir}),
		NewStore(join.BandJoin("fx-ordered", 2, nil), Config{}),
	}
}

// ckptFixtureFeed inserts tuples [from, to) into every store.
func ckptFixtureFeed(stores []*Store, from, to int) {
	for i := from; i < to; i++ {
		for _, s := range stores {
			s.Insert(ckptFixtureTuple(i))
		}
	}
}

// ckptFixtureSnapshot wraps per-joiner records in the fixture's
// operator metadata.
func ckptFixtureSnapshot(id, base uint64, joiners []JoinerSnapshot) *OperatorSnapshot {
	return &OperatorSnapshot{
		ID:        id,
		BaseID:    base,
		Epoch:     2,
		Mapping:   matrix.Mapping{N: 2, M: 2},
		Table:     []int{0, 1, 2, 3},
		NumRe:     2,
		Seq:       uint64(fixtureDeltaN) * id,
		RouteSeed: 99,
		Lanes:     []LaneCursor{{Next: 10, End: 1034}},
		Cuts:      []int64{int64(id) * 500, int64(id) * 600},
		Joiners:   joiners,
	}
}

// storePairs is the join a store answers: every stored R tuple (both
// tiers) probes the S side, keyed by the pair's sequence numbers.
func storePairs(s *Store) map[[2]uint64]int {
	var rs []join.Tuple
	s.Scan(matrix.SideR, func(r join.Tuple) bool { rs = append(rs, r); return true })
	var ps []join.Pair
	s.ProbeBatchCollect(rs, &ps)
	out := map[[2]uint64]int{}
	for _, p := range ps {
		out[[2]uint64{p.R.Seq, p.S.Seq}]++
	}
	return out
}

// fixtureOrderedJoiner is the fixture's band joiner, whose ordered
// records ship tuples in the index's Scan order.
const fixtureOrderedJoiner = 3

// tiesInSeqOrder returns a copy of blob in which joiner id's ordered
// side records list their tuples stably sorted by (key, seq), the
// record re-checksummed; every other byte is blob's. The blobs were
// written by a B-tree whose splits could reorder equal keys; the
// ordered index now keeps ties in insertion order, which in the fixture
// stream is seq order, so only the order of tuples within a key may
// differ from the checked-in bytes.
func tiesInSeqOrder(t *testing.T, blob []byte, id uint32) []byte {
	t.Helper()
	out := append([]byte(nil), blob...)
	found := false
	for off := 0; off < len(out); {
		typ, payload, next, err := nextRecord(out, off)
		if err != nil {
			t.Fatalf("parent blob: %v", err)
		}
		if typ == recJoiner && binary.LittleEndian.Uint32(payload) == id {
			found = true
			// Store payload: kind, memory-tier length, then the Local
			// payload: version byte and the two side records.
			state := payload[joinerHead:]
			mem := state[5 : 5+binary.LittleEndian.Uint32(state[1:])]
			p := 1
			for side := 0; side < 2; side++ {
				if mem[p] != 2 {
					t.Fatalf("joiner %d side %d: record kind %d is not ordered", id, side, mem[p])
				}
				n := int(binary.LittleEndian.Uint32(mem[p+1:]))
				p += 5
				start := p
				type tupleRec struct {
					key int64
					seq uint64
					b   []byte
				}
				recs := make([]tupleRec, n)
				for i := range recs {
					size := 5*8 + 4 + int(binary.LittleEndian.Uint32(mem[p+40:]))
					recs[i] = tupleRec{
						key: int64(binary.LittleEndian.Uint64(mem[p:])),
						seq: binary.LittleEndian.Uint64(mem[p+24:]),
						b:   append([]byte(nil), mem[p:p+size]...),
					}
					p += size
				}
				slices.SortStableFunc(recs, func(a, b tupleRec) int {
					return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.seq, b.seq))
				})
				for _, r := range recs {
					start += copy(mem[start:], r.b)
				}
			}
			binary.LittleEndian.PutUint32(out[off+4:], crc32.ChecksumIEEE(out[off+8:next]))
		}
		off = next
	}
	if !found {
		t.Fatalf("parent blob has no joiner %d record", id)
	}
	return out
}

// TestParentEncodedCheckpointBlobs holds the barrier-capture commit
// path to the bytes the serialize-at-barrier path wrote: the same store
// states, captured and encoded into one exact-size blob, must produce
// the checked-in blobs byte for byte — outside the ordered joiner's
// record, whose equal-key tuples are compared in seq order
// (tiesInSeqOrder) — and the checked-in chain must restore every
// joiner to the pairs a never-checkpointed store answers.
func TestParentEncodedCheckpointBlobs(t *testing.T) {
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	full, delta := read("parent_full.ckpt"), read("parent_delta.ckpt")

	stores := ckptFixtureStores(t.TempDir())
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	ckptFixtureFeed(stores, 0, fixtureFullN)
	joiners := make([]JoinerSnapshot, len(stores))
	wms := make([]StoreWatermark, len(stores))
	for j, s := range stores {
		c, wm, fullPayload, _ := s.Capture(nil)
		if !fullPayload {
			t.Fatalf("joiner %d: capture without a watermark is not full", j)
		}
		joiners[j] = JoinerSnapshot{ID: j, Emitted: int64(10 * j), Capture: c}
		wms[j] = wm
	}
	if got := ckptFixtureSnapshot(1, 0, joiners).Encode(); !bytes.Equal(got, tiesInSeqOrder(t, full, fixtureOrderedJoiner)) {
		t.Fatalf("full checkpoint: captured encode is %d bytes, parent blob %d, contents differ", len(got), len(full))
	}

	ckptFixtureFeed(stores, fixtureFullN, fixtureDeltaN)
	for j, s := range stores {
		c, _, _, _ := s.Capture(&wms[j])
		joiners[j] = JoinerSnapshot{ID: j, Emitted: int64(20 * j), Capture: c}
	}
	if got := ckptFixtureSnapshot(2, 1, joiners).Encode(); !bytes.Equal(got, tiesInSeqOrder(t, delta, fixtureOrderedJoiner)) {
		t.Fatalf("delta checkpoint: captured encode is %d bytes, parent blob %d, contents differ", len(got), len(delta))
	}

	snap, err := DecodeOperatorSnapshotChain([]Blob{{Gen: 1, Data: full}, {Gen: 2, Data: delta}})
	if err != nil {
		t.Fatalf("decode parent chain: %v", err)
	}
	dir := t.TempDir()
	restored, want := ckptFixtureStores(dir), ckptFixtureStores(dir)
	ckptFixtureFeed(want, 0, fixtureDeltaN)
	for j, js := range snap.Joiners {
		if err := restored[j].RestoreSnapshotChain(js.StateChain); err != nil {
			t.Fatalf("joiner %d: restore parent chain: %v", j, err)
		}
		got, exp := storePairs(restored[j]), storePairs(want[j])
		if len(exp) == 0 {
			t.Fatalf("joiner %d: fixture joins nothing", j)
		}
		if len(got) != len(exp) {
			t.Fatalf("joiner %d: %d distinct pairs restored, never-checkpointed store %d", j, len(got), len(exp))
		}
		for k, n := range exp {
			if got[k] != n {
				t.Fatalf("joiner %d: pair %v joined %d times, want %d", j, k, got[k], n)
			}
		}
		diffCounts(t, "restored contents", storeCounts(restored[j]), storeCounts(want[j]))
		restored[j].Close()
		want[j].Close()
	}
	if !stores[2].Spilled() {
		t.Fatal("fixture joiner 2 never spilled")
	}
}
