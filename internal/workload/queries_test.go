package workload

import (
	"testing"

	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/tpch"
)

func testGen() *tpch.Gen {
	return tpch.NewGen(tpch.Config{SF: 0.01, Zipf: 0.5, Seed: 42})
}

func TestAllQueriesStream(t *testing.T) {
	g := testGen()
	for _, q := range All() {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			r, s := q.Cardinalities(g)
			if r == 0 || s == 0 {
				t.Fatalf("%s: empty side r=%d s=%d", q.Name, r, s)
			}
			// Stream again and verify determinism + interleaving: both
			// sides should finish near the end (no long single-side
			// tail beyond rounding).
			var r2, s2, total int64
			var lastR, lastS int64
			q.Stream(g, func(tp join.Tuple) bool {
				total++
				if tp.Rel == matrix.SideR {
					r2++
					lastR = total
				} else {
					s2++
					lastS = total
				}
				return true
			})
			if r2 != r || s2 != s {
				t.Fatalf("non-deterministic stream: %d/%d vs %d/%d", r2, s2, r, s)
			}
			if total-lastR > total/3 || total-lastS > total/3 {
				t.Fatalf("poor interleave: lastR at %d, lastS at %d of %d", lastR, lastS, total)
			}
		})
	}
}

func TestSupplierSideFilters(t *testing.T) {
	g := testGen()
	total := int64(g.NumSuppliers())
	r5, _ := EQ5().Cardinalities(g)
	r7, _ := EQ7().Cardinalities(g)
	// EQ5 keeps one region of five; EQ7 keeps two nations of 25.
	if r5 >= total || r5 == 0 {
		t.Fatalf("EQ5 region filter wrong: %d of %d", r5, total)
	}
	if r7 >= total || r7 == 0 {
		t.Fatalf("EQ7 nation filter wrong: %d of %d", r7, total)
	}
	if r7 >= r5 {
		t.Fatalf("EQ7 (2/25 nations, %d) should be smaller than EQ5 (1/5 regions, %d)", r7, r5)
	}
}

// CountOutput computes a query's exact output size via key-histogram
// overlap (valid because predicates are purely structural after the
// per-side filters) — linear in the input, unlike a nested loop.
func CountOutput(q Query, g *tpch.Gen) (in, out int64) {
	rKeys := make(map[int64]int64)
	sKeys := make(map[int64]int64)
	w := q.MatchWidth
	q.Stream(g, func(tp join.Tuple) bool {
		in++
		opp, own := sKeys, rKeys
		if tp.Rel == matrix.SideS {
			opp, own = rKeys, sKeys
		}
		// The sweep stops at hi itself: at math.MaxInt64, k++ wraps.
		for k, hi := join.BandBounds(tp.Key, w); k <= hi; k++ {
			out += opp[k]
			if k == hi {
				break
			}
		}
		own[tp.Key]++
		return true
	})
	return
}

func TestBCIOutputDwarfsBNCI(t *testing.T) {
	// BCI's output grows quadratically with scale; the paper's
	// "output three orders of magnitude above input" holds at 10GB.
	// At SF 0.2 the crossover is already visible: BCI output exceeds
	// its input while BNCI output stays an order of magnitude below.
	g := tpch.NewGen(tpch.Config{SF: 0.2, Zipf: 0, Seed: 42})
	bciIn, bciOut := CountOutput(BCI(), g)
	bnciIn, bnciOut := CountOutput(BNCI(), g)
	if bciOut < bciIn {
		t.Fatalf("BCI not computation-intensive: in=%d out=%d", bciIn, bciOut)
	}
	if bnciOut >= bnciIn/2 {
		t.Fatalf("BNCI not low-selectivity: in=%d out=%d", bnciIn, bnciOut)
	}
}

func TestStreamEarlyStopDoesNotLeak(t *testing.T) {
	g := testGen()
	n := 0
	EQ5().Stream(g, func(join.Tuple) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("early stop at %d", n)
	}
}

func TestFluctStreamAlternates(t *testing.T) {
	g := testGen()
	for _, k := range []int64{2, 4} {
		var nr, ns int64
		swaps := 0
		last := matrix.SideR
		violations := 0
		FluctStream(g, k, func(tp join.Tuple) bool {
			if tp.Rel != last {
				swaps++
				last = tp.Rel
			}
			if tp.Rel == matrix.SideR {
				nr++
			} else {
				ns++
			}
			// The running ratio must stay within ~k (one-tuple slack)
			// while both relations still have data.
			if nr > 0 && ns > 0 && nr < 13000 && ns < 55000 {
				if nr > k*ns+1 && ns > 1 {
					violations++
				}
			}
			return true
		})
		if nr == 0 || ns == 0 {
			t.Fatalf("k=%d: empty side", k)
		}
		if swaps < 4 {
			t.Fatalf("k=%d: only %d schedule swaps", k, swaps)
		}
		if violations > 0 {
			t.Fatalf("k=%d: %d ratio violations", k, violations)
		}
	}
}

func TestFluctStreamPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	FluctStream(testGen(), 0, func(join.Tuple) bool { return true })
}

func TestByName(t *testing.T) {
	for _, name := range []string{"EQ5", "EQ7", "BCI", "BNCI", "Fluct-Join"} {
		q, ok := ByName(name)
		if !ok || q.Name != name {
			t.Fatalf("ByName(%s) failed", name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("unknown query resolved")
	}
}

func TestQueryString(t *testing.T) {
	if EQ5().String() != "EQ5" {
		t.Fatal("String")
	}
}
