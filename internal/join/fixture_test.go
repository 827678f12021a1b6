package join

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/matrix"
)

// fixtureTuple is the deterministic stream behind testdata/parent_*:
// tuple i, alternating sides over 97 keys, every 7th with a payload,
// every 211th a dummy. The files were encoded from it by the commit
// before the hash directory went pointer-free (32-byte key-bearing
// slots, inline offsets, spill lists): tuples [0, 1100) as a full
// snapshot, [1100, 1400) as the delta taken against it, [1400, 1520) as
// one migration block frame payload (BlockEncoder, what kMigBlocks
// carries).
func fixtureTuple(i int) Tuple {
	x := uint64(i+1) * 0x9e3779b97f4a7c15
	x ^= x >> 29
	tp := Tuple{Rel: matrix.Side(i & 1), Key: int64(x % 97), Aux: int64(i), Size: int32(8 + i%3), U: x, Seq: uint64(i + 1)}
	if i%7 == 0 {
		tp.Payload = []byte{byte(i), byte(i >> 8), 0xab}
	}
	if i%211 == 0 {
		tp.Dummy = true
	}
	return tp
}

// joinedPairs runs the join the stored state answers: every stored R
// tuple probes the S side. The result is a multiset keyed by the pair's
// sequence numbers.
func joinedPairs(l *Local) map[[2]uint64]int {
	var rs []Tuple
	l.Scan(matrix.SideR, func(r Tuple) bool { rs = append(rs, r); return true })
	var ps []Pair
	l.ProbeBatchCollect(rs, &ps)
	out := map[[2]uint64]int{}
	for _, p := range ps {
		out[[2]uint64{p.R.Seq, p.S.Seq}]++
	}
	return out
}

// TestParentEncodedStateDecodes is the compatibility gate on the bytes
// that outlive a process: the directory and the chain column are
// derived state, so a snapshot, a delta chain and a migration block
// frame written before this layout must restore to the same join, and
// what the restored state re-encodes to must be the same bytes.
func TestParentEncodedStateDecodes(t *testing.T) {
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	full, delta, blocks := read("parent_full.snap"), read("parent_delta.snap"), read("parent_migblocks.bin")
	pred := EquiJoin("fixture", nil)
	const fullN, deltaN, blocksN = 1100, 1400, 1520

	// expect checks got against a Local this code builds by plain
	// inserts of the same tuples: stored contents per side, and the
	// pair multiset against a nested loop.
	expect := func(label string, got *Local, n int) *Local {
		t.Helper()
		want := NewLocal(pred)
		oracle := map[[2]uint64]int{}
		for i := 0; i < n; i++ {
			tp := fixtureTuple(i)
			want.Insert(tp)
			for j := 0; j < i; j++ {
				if o := fixtureTuple(j); o.Rel != tp.Rel && o.Key == tp.Key && !o.Dummy && !tp.Dummy {
					r, s := tp, o
					if r.Rel != matrix.SideR {
						r, s = o, tp
					}
					oracle[[2]uint64{r.Seq, s.Seq}]++
				}
			}
		}
		for _, side := range [2]matrix.Side{matrix.SideR, matrix.SideS} {
			var g, w []Tuple
			got.Scan(side, func(tp Tuple) bool { g = append(g, tp); return true })
			want.Scan(side, func(tp Tuple) bool { w = append(w, tp); return true })
			sameBySeq(t, label, g, w)
			idx := got.r
			if side == matrix.SideS {
				idx = got.s
			}
			checkStore(t, label, idx.(*HashIndex))
		}
		pairs := joinedPairs(got)
		if len(pairs) != len(oracle) {
			t.Fatalf("%s: %d distinct pairs, nested loop %d", label, len(pairs), len(oracle))
		}
		for k, c := range oracle {
			if pairs[k] != c {
				t.Fatalf("%s: pair %v joined %d times, nested loop %d", label, k, pairs[k], c)
			}
		}
		return want
	}

	// loadLocal rejects trailing bytes, so a load also proves the whole
	// file decoded.
	l := NewLocal(pred)
	if err := loadLocal(l, full); err != nil {
		t.Fatalf("full snapshot: %v", err)
	}
	expect("full snapshot", l, fullN)
	if again := encodeLocal(l); !bytes.Equal(again, full) {
		t.Fatal("the restored full snapshot does not re-encode to the bytes it was loaded from")
	}

	l = NewLocal(pred)
	if err := l.LoadSnapshotChain([][]byte{full, delta}); err != nil {
		t.Fatalf("snapshot chain: %v", err)
	}
	want := expect("full + delta", l, deltaN)
	if !bytes.Equal(encodeLocal(l), encodeLocal(want)) {
		t.Fatal("base + delta does not restore to the block layout of a never-checkpointed store")
	}

	bs, err := DecodeBlocks(blocks)
	if err != nil {
		t.Fatalf("migration blocks: %v", err)
	}
	if bs.Tuples() != blocksN-deltaN {
		t.Fatalf("migration blocks hold %d tuples, want %d", bs.Tuples(), blocksN-deltaN)
	}
	l.AdoptBlocks(bs)
	expect("full + delta + adopted blocks", l, blocksN)
	var enc BlockEncoder
	for i := deltaN; i < blocksN; i++ {
		enc.Add(fixtureTuple(i))
	}
	if !bytes.Equal(enc.AppendTo(nil), blocks) {
		t.Fatal("BlockEncoder no longer produces the parent's block frame bytes")
	}
}
