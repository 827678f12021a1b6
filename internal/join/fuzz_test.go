package join

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/matrix"
)

// FuzzDecodeBlocks feeds DecodeBlocks arbitrary bytes: the migration
// block payload a worker reads off a link. It must return an error or
// a block set, never panic, and a block set it returns must hold what
// its header claims and install into a join.
func FuzzDecodeBlocks(f *testing.F) {
	if data, err := os.ReadFile(filepath.Join("testdata", "parent_migblocks.bin")); err == nil {
		f.Add(data)
	}
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 4; round++ {
		var e BlockEncoder
		for i := 0; i < rng.Intn(700); i++ {
			tp := diffTuple(rng, uint64(i+1), rng.Int63n(50))
			tp.Rel = matrix.Side(rng.Intn(2))
			e.Add(tp)
		}
		f.Add(e.AppendTo(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{blockWireVersion, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		bs, err := DecodeBlocks(data)
		if err != nil {
			return
		}
		for _, side := range [2]matrix.Side{matrix.SideR, matrix.SideS} {
			if got := len(bs.AppendSide(nil, side)); got != bs.Len(side) {
				t.Fatalf("side %v yields %d tuples, header says %d", side, got, bs.Len(side))
			}
		}
		l := NewLocal(EquiJoin("fuzz", nil))
		n := bs.Tuples()
		l.AdoptBlocks(bs)
		if l.TotalLen() != n {
			t.Fatalf("adopted %d tuples of %d", l.TotalLen(), n)
		}
	})
}
