// Package matrix implements the join-matrix model and the grid-layout
// (n,m)-mapping scheme of §3 of "Scalable and Adaptive Online Joins"
// (Elseidy et al., VLDB 2014).
//
// A join R ⋈ S over J machines is modeled as an |R| x |S| matrix divided
// into J congruent rectangular regions: the relations are split into n
// row partitions and m column partitions with n*m = J, and the machine
// at grid cell (r, c) evaluates R_r ⋈ S_c. The only mapping-dependent
// cost is the input-load factor (ILF): the per-machine input/storage
// |R|/n + |S|/m (§3.3). This package provides the mapping arithmetic:
// optimal-mapping search, ILF computation, the one-step neighborhood
// used by the online migration-decision algorithm, and the theoretical
// bounds of Theorem 3.2.
package matrix

import (
	"fmt"
	"math"
	"math/bits"
)

// Mapping is an (n,m) grid mapping: N row partitions of R and M column
// partitions of S, assigning J = N*M matrix regions to J machines.
// Both N and M are always powers of two (§3.4); the grid route runs a
// non-power-of-two machine count on the largest power of two below it.
type Mapping struct {
	N int // number of R (row) partitions
	M int // number of S (column) partitions
}

// J returns the number of machines the mapping spans.
func (g Mapping) J() int { return g.N * g.M }

// Valid reports whether the mapping is well formed: positive
// power-of-two dimensions.
func (g Mapping) Valid() bool {
	return g.N > 0 && g.M > 0 && isPow2(g.N) && isPow2(g.M)
}

func (g Mapping) String() string { return fmt.Sprintf("(%d,%d)", g.N, g.M) }

// Cell identifies one rectangular region of the join matrix, i.e. the
// pair of partitions a machine is responsible for.
type Cell struct {
	Row int // R partition index in [0, N)
	Col int // S partition index in [0, M)
}

// CellOf returns the grid cell assigned to machine with index id under
// the row-major machine layout. The inverse of MachineOf.
func (g Mapping) CellOf(id int) Cell {
	return Cell{Row: id / g.M, Col: id % g.M}
}

// MachineOf returns the machine index assigned to a grid cell under the
// row-major machine layout. The inverse of CellOf.
func (g Mapping) MachineOf(c Cell) int { return c.Row*g.M + c.Col }

// RowMachines returns the machine ids that share R partition row,
// i.e. the m machines an incoming R tuple routed to that row must reach.
func (g Mapping) RowMachines(row int) []int {
	ids := make([]int, g.M)
	for c := 0; c < g.M; c++ {
		ids[c] = row*g.M + c
	}
	return ids
}

// ColMachines returns the machine ids that share S partition col.
func (g Mapping) ColMachines(col int) []int {
	ids := make([]int, g.N)
	for r := 0; r < g.N; r++ {
		ids[r] = r*g.M + col
	}
	return ids
}

// RowOf returns the R row partition a routing value u (uniform in the
// full uint64 range) falls into: the top log2(N) bits of u. Because
// partitions are defined by bit prefixes of u, halving or doubling N
// merges or splits partitions deterministically — the property the
// locality-aware migration of §4.2.1 relies on.
func (g Mapping) RowOf(u uint64) int { return int(u >> (64 - uint(bits.TrailingZeros(uint(g.N))))) }

// ColOf returns the S column partition for routing value u.
func (g Mapping) ColOf(u uint64) int { return int(u >> (64 - uint(bits.TrailingZeros(uint(g.M))))) }

// Top is a set of routing values given by their top bits: u belongs
// when u>>Shift == Val. A row or column partition is one (RowTop,
// ColTop), and so is every keep, discard and ownership rule of the
// migration steps, which is what lets a store filter its state by
// reading one column. With Shift 64 Go's u>>Shift reads 0 for every u,
// so Val 0 selects the whole space (the partition of a dimension of
// size 1, or TopAll) and any other Val selects nothing (TopNone).
type Top struct {
	Shift uint
	Val   uint64
}

// TopAll selects every routing value; TopNone selects none.
var (
	TopAll  = Top{Shift: 64}
	TopNone = Top{Shift: 64, Val: 1}
)

// Has reports whether u belongs to the set.
func (t Top) Has(u uint64) bool { return u>>t.Shift == t.Val }

// All reports whether the set is the whole space, so a filter by it
// keeps everything without reading u.
func (t Top) All() bool { return t.Shift >= 64 && t.Val == 0 }

// None reports whether the set is empty.
func (t Top) None() bool { return t.Shift >= 64 && t.Val != 0 }

// Meet returns the intersection of t and o. Two prefix sets are nested
// or disjoint, so it is again one Top: the narrower of the two when it
// lies inside the wider, else TopNone. A filter narrowed by any number
// of migration discards thus stays one top-bits test.
func (t Top) Meet(o Top) Top {
	if t.Shift > o.Shift {
		t, o = o, t
	}
	// t is the narrower (or equal) prefix: it lies inside o exactly when
	// its prefix extends o's. A Val too wide for its Shift selects
	// nothing and fails the test, since o.Val never exceeds the bits
	// the shifted prefix keeps.
	if t.Val>>(o.Shift-t.Shift) != o.Val || t.Shift < 64 && t.Val>>(64-t.Shift) != 0 {
		return TopNone
	}
	return t
}

// RowTop returns R row partition row as a top-bits set: the u with
// RowOf(u) == row.
func (g Mapping) RowTop(row int) Top {
	return Top{Shift: 64 - uint(bits.TrailingZeros(uint(g.N))), Val: uint64(row)}
}

// ColTop returns S column partition col as a top-bits set.
func (g Mapping) ColTop(col int) Top {
	return Top{Shift: 64 - uint(bits.TrailingZeros(uint(g.M))), Val: uint64(col)}
}

// ILF returns the input-load factor of the mapping for relation volumes
// r and s (in the same unit, e.g. tuples or bytes): r/N + s/M (§3.3).
func (g Mapping) ILF(r, s float64) float64 {
	return r/float64(g.N) + s/float64(g.M)
}

// ILFWeighted returns the ILF when R and S tuples have different sizes:
// sizeR*r/N + sizeS*s/M.
func (g Mapping) ILFWeighted(r, s float64, sizeR, sizeS float64) float64 {
	return sizeR*r/float64(g.N) + sizeS*s/float64(g.M)
}

// Area returns the per-machine join work |R||S|/J, which Theorem 3.2
// shows is mapping-independent and exactly the optimum lower bound.
func (g Mapping) Area(r, s float64) float64 { return r * s / float64(g.J()) }

// Optimal returns the (n,m)-mapping over J machines minimizing the ILF
// for relation volumes r and s. J must be a power of two. Ties are
// broken toward the mapping with the larger N so that results are
// deterministic.
func Optimal(j int, r, s float64) Mapping {
	if !isPow2(j) || j <= 0 {
		panic(fmt.Sprintf("matrix: Optimal requires a positive power-of-two J, got %d", j))
	}
	best := Mapping{N: 1, M: j}
	bestILF := best.ILF(r, s)
	for n := 2; n <= j; n *= 2 {
		g := Mapping{N: n, M: j / n}
		if ilf := g.ILF(r, s); ilf < bestILF || (ilf == bestILF && g.N > best.N) {
			best, bestILF = g, ilf
		}
	}
	return best
}

// OptimalWeighted is Optimal with per-relation tuple sizes.
func OptimalWeighted(j int, r, s, sizeR, sizeS float64) Mapping {
	return Optimal(j, r*sizeR, s*sizeS)
}

// Square returns the (√J,√J) mapping used by the StaticMid baseline.
// J must be a power of four for the mapping to be exactly square;
// otherwise the closest balanced power-of-two split (2n = m) is
// returned.
func Square(j int) Mapping {
	if !isPow2(j) || j <= 0 {
		panic(fmt.Sprintf("matrix: Square requires a positive power-of-two J, got %d", j))
	}
	lg := bits.TrailingZeros(uint(j))
	n := 1 << (lg / 2)
	return Mapping{N: n, M: j / n}
}

// Neighbors returns the one-step migration neighborhood of the mapping:
// (n/2, 2m) and (2n, m/2), omitting steps that would leave the valid
// range. Lemma 4.2 proves the optimal mapping after admissible growth
// is always the current mapping or one of these.
func (g Mapping) Neighbors() []Mapping {
	var out []Mapping
	if g.N >= 2 {
		out = append(out, Mapping{N: g.N / 2, M: g.M * 2})
	}
	if g.M >= 2 {
		out = append(out, Mapping{N: g.N * 2, M: g.M / 2})
	}
	return out
}

// BestStep returns the mapping among g and its one-step neighbors with
// the minimum ILF for volumes r and s, together with whether it differs
// from g. The online controller migrates one step at a time; repeated
// steps converge to Optimal.
func (g Mapping) BestStep(r, s float64) (Mapping, bool) {
	best, bestILF := g, g.ILF(r, s)
	for _, cand := range g.Neighbors() {
		if ilf := cand.ILF(r, s); ilf < bestILF {
			best, bestILF = cand, ilf
		}
	}
	return best, best != g
}

// StepsTo returns the sequence of one-step migrations leading from g to
// target (exclusive of g, inclusive of target). It panics if the two
// mappings span different machine counts.
func (g Mapping) StepsTo(target Mapping) []Mapping {
	if g.J() != target.J() {
		panic(fmt.Sprintf("matrix: StepsTo across different J: %v -> %v", g, target))
	}
	var steps []Mapping
	cur := g
	for cur != target {
		if cur.N < target.N {
			cur = Mapping{N: cur.N * 2, M: cur.M / 2}
		} else {
			cur = Mapping{N: cur.N / 2, M: cur.M * 2}
		}
		steps = append(steps, cur)
	}
	return steps
}

// SemiPerimeter returns the semi-perimeter of one region: r/N + s/M.
// Identical to ILF; provided under the geometric name used by §3.4.
func (g Mapping) SemiPerimeter(r, s float64) float64 { return g.ILF(r, s) }

// LowerBoundSemiPerimeter returns the information-theoretic lower bound
// 2*sqrt(r*s/J) on a region's semi-perimeter (Theorem 3.1/3.2).
func LowerBoundSemiPerimeter(j int, r, s float64) float64 {
	return 2 * math.Sqrt(r*s/float64(j))
}

// GridBoundRatio is the worst-case ratio, proven in Theorem 3.2, of the
// grid-layout region semi-perimeter to the optimal lower bound:
// (1/√2 + √2)/2 ≈ 1.0607.
const GridBoundRatio = 1.0606601717798214

// Expand returns the mapping after the elastic expansion of §4.2.2
// (Fig. 5): every joiner splits into four, so both dimensions double.
func (g Mapping) Expand() Mapping { return Mapping{N: g.N * 2, M: g.M * 2} }

func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// Log2 returns log2(v) for a power-of-two v.
func Log2(v int) int { return bits.TrailingZeros(uint(v)) }
