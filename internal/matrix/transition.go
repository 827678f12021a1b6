package matrix

import "fmt"

// Side identifies one of the two join inputs.
type Side uint8

const (
	// SideR is the row relation of the join matrix.
	SideR Side = iota
	// SideS is the column relation.
	SideS
)

// Other returns the opposite side.
func (s Side) Other() Side {
	if s == SideR {
		return SideS
	}
	return SideR
}

func (s Side) String() string {
	if s == SideR {
		return "R"
	}
	return "S"
}

// Transition describes one elementary migration step between two
// adjacent mappings over the same machine pool, in the locality-aware
// scheme of §4.2.1 (Fig. 3). Exactly one relation's partitions merge
// pairwise (that relation's state is exchanged between sibling
// machines) and the other relation's partitions split in two (each
// machine deterministically keeps one half of its stored state and
// discards the other).
type Transition struct {
	From Mapping
	To   Mapping
	// Exchange is the side whose partitions merge (state exchanged
	// pairwise); the opposite side's partitions split (state halved by
	// discard).
	Exchange Side
}

// NewTransition builds the transition between two mappings one step
// apart. It panics if the mappings are not adjacent.
func NewTransition(from, to Mapping) Transition {
	switch {
	case to.N == from.N/2 && to.M == from.M*2:
		return Transition{From: from, To: to, Exchange: SideR}
	case to.N == from.N*2 && to.M == from.M/2:
		return Transition{From: from, To: to, Exchange: SideS}
	default:
		panic(fmt.Sprintf("matrix: %v -> %v is not an elementary migration step", from, to))
	}
}

// NewCell returns the grid cell a machine occupying cell c under
// t.From occupies under t.To. For an R-exchange step (n,m)->(n/2,2m)
// machine (r,c) moves to (r>>1, 2c+(r&1)); the S-exchange step is
// symmetric. The map of cells is a bijection, so machine identities are
// stable and only their matrix responsibilities change.
func (t Transition) NewCell(c Cell) Cell {
	if t.Exchange == SideR {
		return Cell{Row: c.Row >> 1, Col: 2*c.Col + (c.Row & 1)}
	}
	return Cell{Row: 2*c.Row + (c.Col & 1), Col: c.Col >> 1}
}

// Partner returns the cell (under t.From) of the machine with which the
// machine at cell c pairwise-exchanges its state of the merging
// relation: the sibling row (R exchange) or sibling column (S
// exchange). Partnering is an involution: Partner(Partner(c)) == c.
func (t Transition) Partner(c Cell) Cell {
	if t.Exchange == SideR {
		return Cell{Row: c.Row ^ 1, Col: c.Col}
	}
	return Cell{Row: c.Row, Col: c.Col ^ 1}
}

// Keeps reports whether a stored tuple of the splitting relation with
// routing value u is kept by the machine at cell c (under t.From) after
// the step, or discarded. Tuples of the merging relation are always
// kept (and additionally copied to the partner).
func (t Transition) Keeps(c Cell, side Side, u uint64) bool {
	if side == t.Exchange {
		return true
	}
	nc := t.NewCell(c)
	if side == SideR {
		return t.To.RowOf(u) == nc.Row
	}
	return t.To.ColOf(u) == nc.Col
}

// KeepTop is Keeps as a top-bits set: the routing values of side's
// stored tuples the machine at cell c (under t.From) keeps. It is
// TopAll for the merging relation and the new row or column partition
// for the splitting one.
func (t Transition) KeepTop(c Cell, side Side) Top {
	if side == t.Exchange {
		return TopAll
	}
	nc := t.NewCell(c)
	if side == SideR {
		return t.To.RowTop(nc.Row)
	}
	return t.To.ColTop(nc.Col)
}

// MigrationVolume returns the per-machine communication volume of the
// step, in tuples, given relation cardinalities r and s: a machine
// sends its full stored partition of the merging relation to its
// partner, i.e. |R|/n (R exchange) or |S|/m (S exchange). The
// bidirectional total per pair matches Lemma 4.4's 2|R|/n time units.
func (t Transition) MigrationVolume(r, s float64) float64 {
	if t.Exchange == SideR {
		return r / float64(t.From.N)
	}
	return s / float64(t.From.M)
}

// Expansion describes the elastic 1-to-4 joiner split of §4.2.2
// (Fig. 5): both dimensions double and each old machine distributes its
// state to the four machines covering its former region.
type Expansion struct {
	From Mapping
	To   Mapping // From.Expand()
}

// NewExpansion builds the expansion transition from a mapping.
func NewExpansion(from Mapping) Expansion {
	return Expansion{From: from, To: from.Expand()}
}

// Children returns the four cells (under e.To) that subdivide the
// region of old cell c, in row-major order: (2r,2c), (2r,2c+1),
// (2r+1,2c), (2r+1,2c+1).
func (e Expansion) Children(c Cell) [4]Cell {
	return [4]Cell{
		{Row: 2 * c.Row, Col: 2 * c.Col},
		{Row: 2 * c.Row, Col: 2*c.Col + 1},
		{Row: 2*c.Row + 1, Col: 2 * c.Col},
		{Row: 2*c.Row + 1, Col: 2*c.Col + 1},
	}
}

// Owns reports whether the child cell stores a tuple of the given side
// with routing value u after the expansion. Each stored R tuple of the
// old machine belongs to exactly one child row (two of the four child
// cells) and each stored S tuple to one child column, so every child
// keeps exactly half of each relation — twice the old state volume in
// total, matching Theorem 4.3's cost accounting.
func (e Expansion) Owns(child Cell, side Side, u uint64) bool {
	if side == SideR {
		return e.To.RowOf(u) == child.Row
	}
	return e.To.ColOf(u) == child.Col
}

// OwnTop is Owns as a top-bits set: the routing values of side's
// tuples the child cell stores after the expansion.
func (e Expansion) OwnTop(child Cell, side Side) Top {
	if side == SideR {
		return e.To.RowTop(child.Row)
	}
	return e.To.ColTop(child.Col)
}
