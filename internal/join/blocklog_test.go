package join

import (
	"math/rand"
	"testing"
)

// checkBlockLog holds l against want, the rows it must hold in order:
// Len, MaxSeq, every row read back from random offsets in random
// chunks (every field, the payload's nilness too), the block shape —
// every block but the newest written full, no block without a row —
// no payload slot left outside the rows held, and Bytes against the
// blocks' own sizes.
func checkBlockLog(t *testing.T, label string, rng *rand.Rand, l *BlockLog, want []Tuple) {
	t.Helper()
	if l.Len() != len(want) {
		t.Fatalf("%s: Len %d, want %d", label, l.Len(), len(want))
	}
	var maxSeq uint64
	for _, w := range want {
		maxSeq = max(maxSeq, w.Seq)
	}
	if got := l.MaxSeq(); got != maxSeq {
		t.Fatalf("%s: MaxSeq %d, want %d", label, got, maxSeq)
	}
	from := 0
	if len(want) > 0 {
		from = rng.Intn(len(want))
	}
	buf := make([]Tuple, 1+rng.Intn(700))
	for i := from; ; {
		n := l.Read(i, buf)
		if n != min(len(buf), len(want)-i) {
			t.Fatalf("%s: Read(%d) of %d rows returned %d", label, i, len(buf), n)
		}
		if n == 0 {
			break
		}
		for j, got := range buf[:n] {
			w := want[i+j]
			if !eqTuple(got, w) || (got.Payload == nil) != (w.Payload == nil) {
				t.Fatalf("%s: row %d reads %+v, want %+v", label, i+j, got, w)
			}
		}
		i += n
	}
	var bytes int64
	rows := 0
	for i, c := range l.blocks {
		lo, hi := int32(0), int32(arenaChunk)
		if i == 0 {
			lo = l.head
		}
		if i == len(l.blocks)-1 {
			hi = l.hi
		}
		if lo >= hi {
			t.Fatalf("%s: block %d of %d holds rows [%d, %d)", label, i, len(l.blocks), lo, hi)
		}
		if c.payload != nil {
			for pos := range int32(arenaChunk) {
				if (pos < lo || pos >= hi) && c.payload[pos] != nil {
					t.Fatalf("%s: block %d keeps the payload of row %d outside [%d, %d)", label, i, pos, lo, hi)
				}
			}
		}
		rows += int(hi - lo)
		bytes += blockLogBytes(c)
	}
	bytes += int64(len(l.spare))*logBlockBytes + int64(len(l.spareCols))*colBytes
	if rows != len(want) || bytes != l.Bytes() {
		t.Fatalf("%s: blocks hold %d rows in %d bytes, log reports %d in %d", label, rows, bytes, l.Len(), l.Bytes())
	}
}

// TestBlockLogMatchesFlatReference drives a BlockLog and a flat slice
// through one random history of appends, DropOldest and DropNewest,
// over every row population of the block layout differential, with
// its payloads as they are, with some empty ones, and with none. A log
// derives only zero u values, so only the u-zero population keeps its
// blocks free of a u column, and only the payload-free one of a
// payload column.
func TestBlockLogMatchesFlatReference(t *testing.T) {
	payloads := map[string]func(tp *Tuple, i int){
		"as-is": func(*Tuple, int) {},
		"empty": func(tp *Tuple, i int) {
			if i%7 == 1 {
				tp.Payload = []byte{}
			}
		},
		"none": func(tp *Tuple, _ int) { tp.Payload = nil },
	}
	for _, st := range layoutStreams() {
		for pname, payload := range payloads {
			label := st.name + "/" + pname
			rng := rand.New(rand.NewSource(67))
			var l BlockLog
			var want []Tuple
			next := 0
			for step := 0; step < 300; step++ {
				switch op := rng.Intn(10); {
				case op < 6:
					run := make([]Tuple, 1+rng.Intn(3*arenaChunk/2))
					for i := range run {
						run[i] = st.tuple(rng, next)
						payload(&run[i], next)
						next++
					}
					l.Append(run)
					want = append(want, run...)
				case op < 8:
					n := rng.Intn(len(want) + 2)
					l.DropOldest(n)
					want = want[min(n, len(want)):]
				default:
					n := rng.Intn(min(len(want), arenaChunk) + 2)
					l.DropNewest(n)
					want = want[:len(want)-min(n, len(want))]
				}
				checkBlockLog(t, label, rng, &l, want)
			}
			for _, c := range l.blocks {
				if (c.u != nil && st.name == "u-zero") || (c.payload != nil && pname == "none") {
					t.Fatalf("%s: a block has a u (%v) or payload (%v) column its rows do not need", label, c.u != nil, c.payload != nil)
				}
			}
		}
	}
}
