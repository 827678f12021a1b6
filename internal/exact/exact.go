// Package exact is the test oracle of the join's one contract: the
// pairs an operator emits are, as a multiset, exactly the pairs a
// nested loop over its accepted input finds, under migration, restore
// and remote workers alike.
//
// A test names each result pair by a fixed-width Key of the columns it
// cares about (the members' seqs, or those plus Aux and a payload
// hash), computes the expected keys with Band or Theta, collects the
// emitted keys into a flat slice, and calls Equal. Nothing is hashed
// into a map, so no collision argument enters a test's meaning.
//
// The package imports no package of this module, so the join and
// storage packages' own tests can use it; Band shares no code with the
// join's indexes.
package exact

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"
)

// Key is one result pair's identity: fixed-width words a test fills
// from the columns it compares.
type Key interface {
	~[2]uint64 | ~[3]uint64 | ~[4]uint64 | ~[6]uint64 | ~[8]uint64
}

// Band returns pair(r, s) once for every r of rs and s of ss whose keys
// lie within w of each other; w = 0 is an equi-join and a negative w
// joins nothing. key reports a row's join key, or false for a row that
// joins nothing (a dummy). The pairs come from a sort-merge on the key:
// both sides sorted, and a window [k-w, k+w], saturated at the int64
// bounds, swept over S by two cursors as R's keys ascend.
func Band[T, K any](rs, ss []T, w int64, key func(*T) (int64, bool), pair func(r, s *T) K) []K {
	if w < 0 {
		return nil
	}
	r, s := sortedRows(rs, key), sortedRows(ss, key)
	var out []K
	lo, hi := 0, 0
	for _, a := range r {
		from, to := a.key-w, a.key+w
		if a.key < math.MinInt64+w {
			from = math.MinInt64
		}
		if a.key > math.MaxInt64-w {
			to = math.MaxInt64
		}
		for lo < len(s) && s[lo].key < from {
			lo++
		}
		for hi < len(s) && s[hi].key <= to {
			hi++
		}
		for _, b := range s[lo:hi] {
			out = append(out, pair(&rs[a.i], &ss[b.i]))
		}
	}
	return out
}

// row is one joining row of a side: its key and its index in the side.
type row struct {
	key int64
	i   int
}

func sortedRows[T any](side []T, key func(*T) (int64, bool)) []row {
	out := make([]row, 0, len(side))
	for i := range side {
		if k, ok := key(&side[i]); ok {
			out = append(out, row{k, i})
		}
	}
	slices.SortFunc(out, func(a, b row) int { return cmp.Compare(a.key, b.key) })
	return out
}

// Theta returns pair(r, s) once for every r of rs and s of ss with
// match(r, s), by nested loop: the oracle of theta joins and residual
// predicates, which no key order narrows.
func Theta[T, K any](rs, ss []T, match func(r, s *T) bool, pair func(r, s *T) K) []K {
	var out []K
	for i := range rs {
		for j := range ss {
			if match(&rs[i], &ss[j]) {
				out = append(out, pair(&rs[i], &ss[j]))
			}
		}
	}
	return out
}

// Equal fails t unless got and want hold the same keys the same number
// of times. It sorts both slices in place. On a mismatch it reports
// both sizes and the first missing and the first extra key, each with
// how often it was emitted and expected.
func Equal[K Key](t testing.TB, got, want []K) {
	t.Helper()
	if msg := Diff(got, want); msg != "" {
		t.Fatal(msg)
	}
}

// Diff is Equal's comparison: it sorts both slices in place and returns
// "" when they are the same multiset, or else Equal's report.
func Diff[K Key](got, want []K) string {
	sortKeys(got)
	sortKeys(want)
	if slices.Equal(got, want) {
		return ""
	}
	msg := fmt.Sprintf("exact: %d pairs emitted, %d expected", len(got), len(want))
	missing, extra := false, false
	i, j := 0, 0
	for (i < len(got) || j < len(want)) && !(missing && extra) {
		var k K
		switch {
		case j == len(want) || i < len(got) && compare(got[i], want[j]) < 0:
			k = got[i]
		default:
			k = want[j]
		}
		ng, nw := run(got[i:], k), run(want[j:], k)
		i, j = i+ng, j+nw
		switch {
		case ng < nw && !missing:
			missing = true
			msg += fmt.Sprintf("; first missing key %v: emitted %d times, expected %d", k, ng, nw)
		case ng > nw && !extra:
			extra = true
			msg += fmt.Sprintf("; first extra key %v: emitted %d times, expected %d", k, ng, nw)
		}
	}
	return msg
}

// sortKeys sorts keys in place: an LSD radix sort on the first two
// words, 11 bits a pass and as many passes as each word's largest value
// needs, then each run of keys equal in both words by the full
// comparison. A test's first two words are the members' seqs or ids,
// so such runs are rare. Sorted keys, such as a want that an earlier
// run's Equal sorted, are left as they are.
func sortKeys[K Key](keys []K) {
	if slices.IsSortedFunc(keys, compare[K]) {
		return
	}
	const bits = 11
	src, dst := keys, make([]K, len(keys))
	for w := 1; w >= 0; w-- {
		var top uint64
		for _, k := range src {
			top |= k[w]
		}
		for shift := 0; shift < 64 && top>>shift != 0; shift += bits {
			var at [1<<bits + 1]int
			for _, k := range src {
				at[k[w]>>shift&(1<<bits-1)+1]++
			}
			for d := 1; d < len(at); d++ {
				at[d] += at[d-1]
			}
			for _, k := range src {
				d := k[w] >> shift & (1<<bits - 1)
				dst[at[d]] = k
				at[d]++
			}
			src, dst = dst, src
		}
	}
	copy(keys, src)
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j][0] == keys[i][0] && keys[j][1] == keys[i][1] {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(keys[i:j], compare[K])
		}
		i = j
	}
}

// run counts the leading keys of sorted equal to k.
func run[K Key](sorted []K, k K) int {
	n := 0
	for n < len(sorted) && sorted[n] == k {
		n++
	}
	return n
}

func compare[K Key](a, b K) int {
	for i := 0; i < len(a); i++ {
		if c := cmp.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}
