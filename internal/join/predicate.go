package join

import (
	"fmt"
	"math"
)

// Kind classifies the structure of a join predicate. The joiner picks
// its local index by kind: hash index for equi, ordered index for band,
// exhaustive scan for theta.
type Kind uint8

const (
	// Equi joins tuples with equal keys.
	Equi Kind = iota
	// Band joins tuples whose keys differ by at most Width.
	Band
	// Theta joins tuples by an arbitrary predicate over both tuples.
	Theta
)

func (k Kind) String() string {
	switch k {
	case Equi:
		return "equi"
	case Band:
		return "band"
	case Theta:
		return "theta"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Predicate is a join condition. Matches must be symmetric in the sense
// that it is always called with an R tuple first and an S tuple second.
//
// Kind and Width are structural hints: for Equi the joiner only probes
// equal keys; for Band it probes keys within [s.Key-Width, s.Key+Width];
// Residual (if non-nil) is evaluated on candidate pairs produced by the
// structural probe. For Theta, every stored tuple is a candidate and
// Residual is the whole predicate.
type Predicate struct {
	Kind  Kind
	Width int64 // band half-width; 0 for equi
	// Residual is the filter applied to structurally matching pairs.
	// nil means all structural matches join.
	Residual func(r, s Tuple) bool
	// Name labels the predicate in logs and experiment output.
	Name string
}

// Matches reports whether r and s join: the structural condition plus
// the residual filter. Dummy padding tuples never match.
func (p Predicate) Matches(r, s Tuple) bool {
	if r.Dummy || s.Dummy {
		return false
	}
	switch p.Kind {
	case Equi:
		if r.Key != s.Key {
			return false
		}
	case Band:
		if !withinBand(r.Key, s.Key, p.Width) {
			return false
		}
	}
	return p.Residual == nil || p.Residual(r, s)
}

// withinBand reports |a - b| <= w without overflow: the distance of
// two int64 values always fits in a uint64. A negative w matches
// nothing.
func withinBand(a, b, w int64) bool {
	if a < b {
		a, b = b, a
	}
	return w >= 0 && uint64(a)-uint64(b) <= uint64(w)
}

// bandBounds is the key range [key-w, key+w] a band probe sweeps,
// saturated at the int64 bounds instead of wrapping. A negative w gives
// an empty range.
func bandBounds(key, w int64) (lo, hi int64) {
	if w < 0 {
		return math.MaxInt64, math.MinInt64
	}
	lo, hi = key-w, key+w
	if key < math.MinInt64+w {
		lo = math.MinInt64
	}
	if key > math.MaxInt64-w {
		hi = math.MaxInt64
	}
	return lo, hi
}

func (p Predicate) String() string {
	if p.Name != "" {
		return p.Name
	}
	return p.Kind.String()
}

// EquiJoin returns an equi-join predicate on Key with an optional
// residual filter.
func EquiJoin(name string, residual func(r, s Tuple) bool) Predicate {
	return Predicate{Kind: Equi, Residual: residual, Name: name}
}

// BandJoin returns a band-join predicate |r.Key - s.Key| <= width with
// an optional residual filter.
func BandJoin(name string, width int64, residual func(r, s Tuple) bool) Predicate {
	return Predicate{Kind: Band, Width: width, Residual: residual, Name: name}
}

// ThetaJoin returns an arbitrary theta-join predicate.
func ThetaJoin(name string, pred func(r, s Tuple) bool) Predicate {
	return Predicate{Kind: Theta, Residual: pred, Name: name}
}
