package matrix

import (
	"math/rand"
	"testing"
)

func TestNewTransitionDirection(t *testing.T) {
	tr := NewTransition(Mapping{8, 2}, Mapping{4, 4})
	if tr.Exchange != SideR {
		t.Errorf("(8,2)->(4,4) should exchange R, got %v", tr.Exchange)
	}
	tr = NewTransition(Mapping{4, 4}, Mapping{8, 2})
	if tr.Exchange != SideS {
		t.Errorf("(4,4)->(8,2) should exchange S, got %v", tr.Exchange)
	}
}

func TestNewTransitionPanicsOnNonAdjacent(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for two-step transition")
		}
	}()
	NewTransition(Mapping{8, 2}, Mapping{2, 8})
}

// The cell relabeling of a transition must be a bijection between the
// old and the new grid.
func TestNewCellBijection(t *testing.T) {
	for _, pair := range [][2]Mapping{
		{{8, 2}, {4, 4}},
		{{4, 4}, {8, 2}},
		{{2, 32}, {1, 64}},
		{{1, 64}, {2, 32}},
	} {
		tr := NewTransition(pair[0], pair[1])
		seen := make(map[Cell]bool)
		for id := 0; id < pair[0].J(); id++ {
			nc := tr.NewCell(pair[0].CellOf(id))
			if nc.Row < 0 || nc.Row >= pair[1].N || nc.Col < 0 || nc.Col >= pair[1].M {
				t.Fatalf("%v->%v: new cell %v out of range", pair[0], pair[1], nc)
			}
			if seen[nc] {
				t.Fatalf("%v->%v: new cell %v assigned twice", pair[0], pair[1], nc)
			}
			seen[nc] = true
		}
	}
}

func TestPartnerInvolution(t *testing.T) {
	tr := NewTransition(Mapping{8, 4}, Mapping{4, 8})
	for id := 0; id < 32; id++ {
		c := tr.From.CellOf(id)
		p := tr.Partner(c)
		if p == c {
			t.Fatalf("cell %v is its own partner", c)
		}
		if back := tr.Partner(p); back != c {
			t.Fatalf("Partner not involutive: %v -> %v -> %v", c, p, back)
		}
	}
}

// After an R-exchange step, the union of a machine's kept R state and
// its partner's R state is exactly the machine's new R partition; and
// kept S tuples are exactly those in the machine's new S partition.
func TestTransitionStateCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	from := Mapping{N: 8, M: 2}
	to := Mapping{N: 4, M: 4}
	tr := NewTransition(from, to)

	// Simulate stored state: each R tuple lives on all machines of its
	// old row; each S tuple on all machines of its old column.
	type tup struct{ u uint64 }
	var rs, ss []tup
	for i := 0; i < 4000; i++ {
		rs = append(rs, tup{rng.Uint64()})
		ss = append(ss, tup{rng.Uint64()})
	}
	for id := 0; id < from.J(); id++ {
		c := from.CellOf(id)
		nc := tr.NewCell(c)
		p := tr.Partner(c)

		// New R partition must equal own old row + partner's old row.
		for _, r := range rs {
			inNew := to.RowOf(r.u) == nc.Row
			own := from.RowOf(r.u) == c.Row
			fromPartner := from.RowOf(r.u) == p.Row
			if inNew != (own || fromPartner) {
				t.Fatalf("cell %v: R tuple u=%x new-partition membership mismatch", c, r.u)
			}
			if own && !tr.Keeps(c, SideR, r.u) {
				t.Fatalf("cell %v: exchanged-side tuple not kept", c)
			}
		}
		// Kept S tuples = stored S tuples in the new column.
		for _, s := range ss {
			stored := from.ColOf(s.u) == c.Col
			if !stored {
				continue
			}
			keep := tr.Keeps(c, SideS, s.u)
			inNew := to.ColOf(s.u) == nc.Col
			if keep != inNew {
				t.Fatalf("cell %v: S tuple u=%x keep=%v inNew=%v", c, s.u, keep, inNew)
			}
		}
	}
}

// Globally: after the step, every (R,S) pair is covered by exactly one
// machine, i.e. the new grid still tiles the join matrix.
func TestTransitionGlobalCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	from := Mapping{N: 4, M: 4}
	to := Mapping{N: 2, M: 8}
	tr := NewTransition(from, to)

	for trial := 0; trial < 2000; trial++ {
		ur, us := rng.Uint64(), rng.Uint64()
		owners := 0
		for id := 0; id < from.J(); id++ {
			c := from.CellOf(id)
			nc := tr.NewCell(c)
			// Post-migration state: R tuples of the new row (own kept +
			// partner's migrated), S tuples kept from old column.
			hasR := to.RowOf(ur) == nc.Row
			hasS := from.ColOf(us) == c.Col && tr.Keeps(c, SideS, us)
			if hasR && hasS {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("pair (%x,%x) covered by %d machines after migration", ur, us, owners)
		}
	}
}

func TestMigrationVolumeLemma44(t *testing.T) {
	tr := NewTransition(Mapping{8, 2}, Mapping{4, 4})
	// Each machine sends |R|/n tuples; Lemma 4.4's 2|R|/n counts both
	// directions of a pair.
	if got := tr.MigrationVolume(800, 1000); got != 100 {
		t.Errorf("MigrationVolume = %v, want 100", got)
	}
	tr = NewTransition(Mapping{8, 2}, Mapping{16, 1})
	if got := tr.MigrationVolume(800, 1000); got != 500 {
		t.Errorf("MigrationVolume = %v, want 500", got)
	}
}

func TestExpansionChildrenPartition(t *testing.T) {
	e := NewExpansion(Mapping{2, 2})
	if e.To != (Mapping{4, 4}) {
		t.Fatalf("expansion target %v", e.To)
	}
	seen := make(map[Cell]bool)
	for id := 0; id < e.From.J(); id++ {
		for _, ch := range e.Children(e.From.CellOf(id)) {
			if seen[ch] {
				t.Fatalf("child %v produced twice", ch)
			}
			seen[ch] = true
		}
	}
	if len(seen) != e.To.J() {
		t.Fatalf("children cover %d cells, want %d", len(seen), e.To.J())
	}
}

// After expansion, every (R,S) pair must be owned by exactly one child
// across the whole new grid, and each child holds half of each side of
// its parent's state.
func TestExpansionCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	e := NewExpansion(Mapping{2, 4})
	for trial := 0; trial < 2000; trial++ {
		ur, us := rng.Uint64(), rng.Uint64()
		owners := 0
		for id := 0; id < e.From.J(); id++ {
			c := e.From.CellOf(id)
			// The old machine held R tuples of its row and S of its col.
			if e.From.RowOf(ur) != c.Row || e.From.ColOf(us) != c.Col {
				continue
			}
			for _, ch := range e.Children(c) {
				if e.Owns(ch, SideR, ur) && e.Owns(ch, SideS, us) {
					owners++
				}
			}
		}
		if owners != 1 {
			t.Fatalf("pair (%x,%x) owned by %d children", ur, us, owners)
		}
	}
}

func TestSideOther(t *testing.T) {
	if SideR.Other() != SideS || SideS.Other() != SideR {
		t.Error("Other is wrong")
	}
	if SideR.String() != "R" || SideS.String() != "S" {
		t.Error("String is wrong")
	}
}

// The top-bits forms of the migration filters must select exactly the
// routing values Keeps and Owns select, for every cell of every mapping
// up to J = 64 — N = 1 and M = 1 included, where a partition's shift is
// 64 and u>>64 must read 0 — on random u and on the partition
// boundaries.
func TestTopBitsAgreeWithKeepsAndOwns(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	us := []uint64{0, 1, 1<<63 - 1, 1 << 63, ^uint64(0)}
	for k := uint(1); k < 64; k++ {
		us = append(us, 1<<k, 1<<k-1)
	}
	for i := 0; i < 200; i++ {
		us = append(us, rng.Uint64())
	}
	for _, u := range us {
		if !TopAll.Has(u) || TopNone.Has(u) {
			t.Fatalf("TopAll/TopNone misread u=%x", u)
		}
	}
	if !TopAll.All() || TopAll.None() || !TopNone.None() || TopNone.All() {
		t.Fatal("TopAll/TopNone misreport themselves")
	}
	for j := 1; j <= 64; j *= 2 {
		for n := 1; n <= j; n *= 2 {
			from := Mapping{N: n, M: j / n}
			for id := 0; id < from.J(); id++ {
				c := from.CellOf(id)
				for _, u := range us {
					if from.RowTop(c.Row).Has(u) != (from.RowOf(u) == c.Row) ||
						from.ColTop(c.Col).Has(u) != (from.ColOf(u) == c.Col) {
						t.Fatalf("%v cell %v: RowTop/ColTop disagree with RowOf/ColOf at u=%x", from, c, u)
					}
				}
			}
			var steps []Transition
			if from.N > 1 {
				steps = append(steps, NewTransition(from, Mapping{N: from.N / 2, M: from.M * 2}))
			}
			if from.M > 1 {
				steps = append(steps, NewTransition(from, Mapping{N: from.N * 2, M: from.M / 2}))
			}
			e := NewExpansion(from)
			for id := 0; id < from.J(); id++ {
				c := from.CellOf(id)
				for _, side := range []Side{SideR, SideS} {
					for _, tr := range steps {
						top := tr.KeepTop(c, side)
						if side == tr.Exchange && !top.All() {
							t.Fatalf("%v->%v cell %v: merging side %v keeps %+v, want all", tr.From, tr.To, c, side, top)
						}
						for _, u := range us {
							if top.Has(u) != tr.Keeps(c, side, u) {
								t.Fatalf("%v->%v cell %v side %v: KeepTop %+v and Keeps disagree at u=%x",
									tr.From, tr.To, c, side, top, u)
							}
						}
					}
					for _, ch := range e.Children(c) {
						top := e.OwnTop(ch, side)
						for _, u := range us {
							if top.Has(u) != e.Owns(ch, side, u) {
								t.Fatalf("expansion of %v child %v side %v: OwnTop %+v and Owns disagree at u=%x",
									from, ch, side, top, u)
							}
						}
					}
				}
			}
		}
	}
	// A dimension of size 1 is the one partition: its shift is 64.
	if top := (Mapping{N: 1, M: 64}).RowTop(0); top.Shift != 64 || !top.All() {
		t.Fatalf("RowTop of N = 1 is %+v, want shift 64 selecting all", top)
	}
}
