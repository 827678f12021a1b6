package join

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/matrix"
)

// BenchmarkMigrationFinalize prices a migration's finalize and the
// probes of the store it leaves, one layer below the operator. A store
// of n rows views the windows of a line written for two readers (its
// segment); µ holds n/4 migrated rows in a block set's blocks, indexed
// as AdoptBlocks indexes them; ∆′ holds n/8 rows of a new line.
//
//   - "finalize": Retain by the top bit of u (a split: half the rows
//     go), then MergeFrom(µ) and MergeFrom(∆′), as joiner.maybeFinalize
//     runs them; ns/row is per row the three stores held.
//   - "probe/dirs=d": runs of 32 probes (about one in five hits) against
//     a store whose rows sit in d slot indexes — the line alone (1); a
//     split's state, the line filtered and ∆′'s line (2); a merge's
//     state, the line, µ's index and ∆′'s line (3); ns/tuple per probe
//     tuple, and rows/hit, the chain rows a probe walks per row it
//     matches (a filtered index walks the rows its filter hides).
func BenchmarkMigrationFinalize(b *testing.B) {
	const n = 1 << 16
	b.Run("finalize", func(b *testing.B) {
		var elapsed time.Duration
		rows := 0
		for i := 0; i < b.N; i++ {
			st := newMigStores(n, int64(i))
			rows += st.state.Len() + st.mu.Len() + st.dp.Len()
			start := time.Now()
			st.state.Retain(matrix.Top{Shift: 63, Val: 0})
			st.state.MergeFrom(st.mu)
			st.state.MergeFrom(st.dp)
			elapsed += time.Since(start)
		}
		b.ReportMetric(float64(elapsed.Nanoseconds())/float64(rows), "ns/row")
	})
	for dirs := 1; dirs <= 3; dirs++ {
		b.Run(fmt.Sprintf("probe/dirs=%d", dirs), func(b *testing.B) {
			st := newMigStores(n, 1)
			h := st.state
			switch dirs {
			case 2:
				h.Retain(matrix.Top{Shift: 63, Val: 0})
				h.MergeFrom(st.dp)
			case 3:
				h.Retain(matrix.TopAll)
				h.MergeFrom(st.mu)
				h.MergeFrom(st.dp)
			}
			if h.dirs() != dirs {
				b.Fatalf("store walks %d slot indexes, want %d", h.dirs(), dirs)
			}
			rng := rand.New(rand.NewSource(2))
			probes := make([]Tuple, 1<<14)
			for i := range probes {
				probes[i] = Tuple{Rel: matrix.SideR, Key: rng.Int63n(4 * n), Size: 8, Seq: uint64(i + 1)}
			}
			pred := EquiJoin("eq", nil)
			var out []Pair
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run := probes[(i*32)%len(probes):][:32]
				out = out[:0]
				h.ProbeBatchCollect(run, matrix.SideR, pred, &out)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(32*b.N), "ns/tuple")
			b.ReportMetric(chainRowsPerHit(h, probes), "rows/hit")
		})
	}
}

// migStores is one joiner's side as a migration's finalize finds it:
// the state, µ and ∆′ (BenchmarkMigrationFinalize).
type migStores struct {
	state, mu, dp *HashIndex
}

// newMigStores builds a state of n rows viewing a line of two readers,
// µ of n/4 rows adopted from a block set, and ∆′ of n/8 rows viewing a
// second line; keys are uniform over 4n, u derived from seq.
func newMigStores(n int, seed int64) migStores {
	rng := rand.New(rand.NewSource(seed))
	seq := uint64(0)
	stream := func(k int) []Tuple {
		ts := make([]Tuple, k)
		for i := range ts {
			seq++
			ts[i] = Tuple{Rel: matrix.SideS, Key: rng.Int63n(4 * int64(n)), Size: 8, Seq: seq, U: UMix(7, seq)}
		}
		return ts
	}
	line := func(ts []Tuple) *HashIndex {
		h, other := NewHashIndex(), NewHashIndex()
		var bw BlockWriter
		bw.Reset(2, true, 7)
		writeShared(&bw, ts, 256, func(run []Tuple, w Window) {
			h.InsertWindow(run, w)
			other.InsertWindow(run, w)
		})
		return h
	}
	st := migStores{state: line(stream(n)), dp: line(stream(n / 8)), mu: NewHashIndex()}
	var enc BlockEncoder
	for _, t := range stream(n / 4) {
		enc.Add(t)
	}
	bs := enc.Seal()
	adoptIndex(st.mu, &bs.arenas[matrix.SideS], bs.bytes[matrix.SideS])
	return st
}

// chainRowsPerHit is the chain rows the probes of ps walk in h's slot
// indexes, below each reader's watermark, per row they match.
func chainRowsPerHit(h *HashIndex, ps []Tuple) float64 {
	var walked, hits int
	h.readers(func(r slotReader) {
		for _, p := range ps {
			tag := tagOf(p.Key)
			home := r.d.home(tag)
			head := r.findFrom(home, atomic.LoadUint64(&r.d.slots[home]), tag, p.Key)
			for head != 0 {
				pos := head - 1
				e, row := r.entry(pos), int32(pos&(arenaChunk-1))
				if head <= r.w {
					walked++
					if r.keep.has(e.c.uAt(row)) {
						hits++
					}
				}
				head = e.next[row]
			}
		}
	})
	if hits == 0 {
		return 0
	}
	return float64(walked) / float64(hits)
}
