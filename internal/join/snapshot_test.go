package join

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/matrix"
)

// snapTupleKey flattens a tuple (payload included) for multiset
// comparison across a snapshot round trip.
type snapTupleKey struct {
	rel      matrix.Side
	key, aux int64
	u, seq   uint64
	size     int32
	dummy    bool
	payload  string
}

func snapKeyOf(t Tuple) snapTupleKey {
	return snapTupleKey{
		rel: t.Rel, key: t.Key, aux: t.Aux, u: t.U, seq: t.Seq,
		size: t.Size, dummy: t.Dummy, payload: string(t.Payload),
	}
}

func storedMultiset(l *Local) map[snapTupleKey]int {
	out := make(map[snapTupleKey]int)
	for _, side := range []matrix.Side{matrix.SideR, matrix.SideS} {
		l.Scan(side, func(t Tuple) bool {
			out[snapKeyOf(t)]++
			return true
		})
	}
	return out
}

// encodeLocal is the full snapshot payload of l, as a checkpoint
// barrier with no earlier watermark captures and encodes it.
func encodeLocal(l *Local) []byte {
	c, _, _ := l.Capture(nil)
	return c.AppendTo(nil, nil)
}

// loadLocal installs one full payload into l.
func loadLocal(l *Local, p []byte) error { return l.LoadSnapshotChain([][]byte{p}) }

// fillLocal inserts a mixed population: keyed tuples on both sides,
// some with payloads, some dummies, spread over enough tuples to span
// multiple arena chunks.
func fillLocal(l *Local, rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		t := Tuple{
			Rel:  matrix.Side(i % 2),
			Key:  rng.Int63n(97),
			Aux:  rng.Int63(),
			U:    rng.Uint64(),
			Seq:  uint64(i + 1),
			Size: int32(8 + rng.Intn(64)),
		}
		if i%7 == 0 {
			t.Payload = []byte(strings.Repeat("p", 1+rng.Intn(24)))
		}
		if i%31 == 0 {
			t.Dummy = true
			t.Seq = 0
		}
		l.Insert(t)
	}
}

func TestLocalSnapshotRoundTrip(t *testing.T) {
	preds := []struct {
		name string
		pred Predicate
	}{
		{"hash-equi", EquiJoin("eq", nil)},
		{"ordered-band", BandJoin("band", 3, nil)},
		{"scan-theta", ThetaJoin("theta", func(r, s Tuple) bool { return r.Key < s.Key })},
	}
	for _, tc := range preds {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			src := NewLocal(tc.pred)
			fillLocal(src, rng, 5000) // spans several arena chunks
			want := storedMultiset(src)
			wantBytes := src.Bytes()

			dst := NewLocal(tc.pred)
			if err := loadLocal(dst, encodeLocal(src)); err != nil {
				t.Fatalf("load: %v", err)
			}
			got := storedMultiset(dst)
			if len(got) != len(want) {
				t.Fatalf("distinct tuples: got %d, want %d", len(got), len(want))
			}
			for k, c := range want {
				if got[k] != c {
					t.Fatalf("tuple %+v: got %d, want %d", k, got[k], c)
				}
			}
			if dst.Bytes() != wantBytes {
				t.Fatalf("restored Bytes() = %d, want %d", dst.Bytes(), wantBytes)
			}

			// A restored local must still join correctly: probe one tuple
			// against both versions and compare match counts.
			pt := Tuple{Rel: matrix.SideR, Key: 13, Size: 8, Seq: 999999}
			if a, b := probe(src, pt), probe(dst, pt); a != b {
				t.Fatalf("restored probe found %d matches, original %d", b, a)
			}
		})
	}
}

func TestLocalSnapshotEmptyRoundTrip(t *testing.T) {
	src := NewLocal(EquiJoin("eq", nil))
	dst := NewLocal(EquiJoin("eq", nil))
	if err := loadLocal(dst, encodeLocal(src)); err != nil {
		t.Fatalf("load empty: %v", err)
	}
	if dst.TotalLen() != 0 {
		t.Fatalf("restored empty local holds %d tuples", dst.TotalLen())
	}
}

// The payload records its own end, so bytes past it are a framing
// error the decoder reports rather than ignores.
func TestLocalSnapshotSelfDelimiting(t *testing.T) {
	src := NewLocal(EquiJoin("eq", nil))
	fillLocal(src, rand.New(rand.NewSource(7)), 300)
	buf := encodeLocal(src)
	if err := loadLocal(NewLocal(EquiJoin("eq", nil)), append(buf, "TRAILING-RECORD"...)); err == nil {
		t.Fatal("a payload with trailing bytes loaded")
	}
	if err := loadLocal(NewLocal(EquiJoin("eq", nil)), buf); err != nil {
		t.Fatalf("load: %v", err)
	}
}

func TestLocalSnapshotKindMismatch(t *testing.T) {
	src := NewLocal(EquiJoin("eq", nil)) // hash indexes
	fillLocal(src, rand.New(rand.NewSource(9)), 100)
	dst := NewLocal(BandJoin("band", 2, nil)) // ordered indexes
	if err := loadLocal(dst, encodeLocal(src)); err == nil {
		t.Fatal("loading a hash snapshot into an ordered-index local succeeded")
	}
	if err := loadLocal(NewLocal(EquiJoin("eq", nil)), encodeLocal(dst)); err == nil {
		t.Fatal("loading an ordered snapshot into a hash-index local succeeded")
	}
}

// An ordered record is bulk-built as it stands, so one whose tuples are
// out of key order must fail to load rather than build a tree that
// misses matches.
func TestLocalSnapshotOrderedKeyDisorder(t *testing.T) {
	p := appendU8(nil, localSnapVersion)
	p = appendU8(p, snapIdxOrdered)
	p = appendU32(p, 2)
	p = appendTuple(p, Tuple{Rel: matrix.SideR, Key: 5, Seq: 1, Size: 8})
	p = appendTuple(p, Tuple{Rel: matrix.SideR, Key: 3, Seq: 2, Size: 8})
	p = appendU8(p, snapIdxOrdered)
	p = appendU32(p, 0)
	l := NewLocal(BandJoin("band", 2, nil))
	if err := loadLocal(l, p); err == nil || !strings.Contains(err.Error(), "key order") {
		t.Fatalf("loading an out-of-order ordered record: err = %v", err)
	}
	if l.TotalLen() != 0 {
		t.Fatalf("a rejected record left %d tuples behind", l.TotalLen())
	}
}

func TestLocalSnapshotRejectsNonEmptyTarget(t *testing.T) {
	src := NewLocal(EquiJoin("eq", nil))
	dst := NewLocal(EquiJoin("eq", nil))
	dst.Insert(Tuple{Rel: matrix.SideR, Key: 1, Seq: 1, Size: 8})
	if err := loadLocal(dst, encodeLocal(src)); err == nil {
		t.Fatal("loading into a non-empty local succeeded")
	}
}

func TestLocalSnapshotTruncation(t *testing.T) {
	src := NewLocal(EquiJoin("eq", nil))
	fillLocal(src, rand.New(rand.NewSource(11)), 500)
	buf := encodeLocal(src)
	// Every proper prefix must fail cleanly (never panic). Stride keeps
	// the test fast; the interesting boundaries are all hit modulo 13.
	for cut := 0; cut < len(buf); cut += 13 {
		if err := loadLocal(NewLocal(EquiJoin("eq", nil)), buf[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d loaded successfully", cut, len(buf))
		}
	}
}

func TestSnapshotSeqsSkipsDummies(t *testing.T) {
	l := NewLocal(EquiJoin("eq", nil))
	l.Insert(Tuple{Rel: matrix.SideR, Key: 1, Seq: 10, Size: 8})
	l.Insert(Tuple{Rel: matrix.SideS, Key: 1, Seq: 11, Size: 8})
	l.Insert(Tuple{Rel: matrix.SideR, Key: 2, Dummy: true, Size: 8})
	seqs := l.SnapshotSeqs(nil)
	if len(seqs) != 2 {
		t.Fatalf("SnapshotSeqs returned %d entries, want 2", len(seqs))
	}
	got := map[uint64]bool{seqs[0]: true, seqs[1]: true}
	if !got[10] || !got[11] {
		t.Fatalf("SnapshotSeqs = %v, want {10, 11}", seqs)
	}
}
