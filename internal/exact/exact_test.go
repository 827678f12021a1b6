package exact

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// fuzzRow is one fuzzed input row: its index on its side, its key and
// whether it is a dummy.
type fuzzRow struct {
	i     uint64
	key   int64
	dummy bool
}

// fuzzKeys is the key palette a fuzzed byte picks from: the int64
// extremes and small values, so that duplicates, band windows that
// cross zero and windows that would wrap past either bound all occur.
var fuzzKeys = []int64{
	math.MinInt64, math.MinInt64 + 1, math.MinInt64 + 2, math.MinInt64 + 3,
	-3, -2, -1, 0, 1, 2, 3,
	math.MaxInt64 - 3, math.MaxInt64 - 2, math.MaxInt64 - 1, math.MaxInt64,
}

// fuzzSides splits data into at most 64 rows a side: the first byte
// gives R's row count, then one byte a row, whose top bit marks a dummy
// and whose low bits pick a key from fuzzKeys.
func fuzzSides(data []byte) (rs, ss []fuzzRow) {
	if len(data) == 0 {
		return nil, nil
	}
	nR := int(data[0]) % 65
	for i, b := range data[1:] {
		row := fuzzRow{key: fuzzKeys[int(b&0x7f)%len(fuzzKeys)], dummy: b&0x80 != 0}
		switch {
		case i < nR:
			row.i = uint64(len(rs))
			rs = append(rs, row)
		case len(ss) < 64:
			row.i = uint64(len(ss))
			ss = append(ss, row)
		}
	}
	return rs, ss
}

// within is the band condition |r - s| <= w without overflow: the
// distance of two int64 values always fits in a uint64.
func within(r, s, w int64) bool {
	if r < s {
		r, s = s, r
	}
	return w >= 0 && uint64(r)-uint64(s) <= uint64(w)
}

// FuzzExact holds Band's sort-merge to the nested loop it replaces:
// the same pairs, as a multiset, for every fuzzed input and band width
// 0 to 3.
func FuzzExact(f *testing.F) {
	f.Add([]byte{0}, uint8(0))
	f.Add([]byte{2, 7, 7, 7, 7, 7}, uint8(0))
	f.Add([]byte{2, 0, 14, 0, 14, 1, 13}, uint8(1))
	f.Add([]byte{3, 3, 0x87, 14, 0, 0x80, 14, 13, 12}, uint8(3))
	f.Add([]byte{1, 4, 5, 6, 7, 8, 9, 10}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, wb uint8) {
		rs, ss := fuzzSides(data)
		w := int64(wb % 4)
		pair := func(r, s *fuzzRow) [2]uint64 { return [2]uint64{r.i, s.i} }
		key := func(r *fuzzRow) (int64, bool) { return r.key, !r.dummy }
		match := func(r, s *fuzzRow) bool { return !r.dummy && !s.dummy && within(r.key, s.key, w) }
		Equal(t, Band(rs, ss, w, key, pair), Theta(rs, ss, match, pair))
	})
}

// A negative width joins nothing, whatever the keys.
func TestBandNegativeWidthJoinsNothing(t *testing.T) {
	rs := []fuzzRow{{0, 5, false}}
	key := func(r *fuzzRow) (int64, bool) { return r.key, true }
	pair := func(r, s *fuzzRow) [2]uint64 { return [2]uint64{r.i, s.i} }
	if got := Band(rs, rs, -1, key, pair); len(got) != 0 {
		t.Fatalf("width -1 joined %v", got)
	}
}

// Diff names the first missing and the first extra key with both
// counts, and is empty only for equal multisets in any order.
func TestDiffReport(t *testing.T) {
	if msg := Diff([][2]uint64{{2, 1}, {1, 1}, {2, 1}}, [][2]uint64{{2, 1}, {2, 1}, {1, 1}}); msg != "" {
		t.Fatalf("equal multisets reported %q", msg)
	}
	msg := Diff([][2]uint64{{1, 1}, {3, 3}, {3, 3}}, [][2]uint64{{1, 1}, {2, 2}, {3, 3}})
	for _, want := range []string{
		"3 pairs emitted, 3 expected",
		"first missing key [2 2]: emitted 0 times, expected 1",
		"first extra key [3 3]: emitted 2 times, expected 1",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("report %q lacks %q", msg, want)
		}
	}
}

// sortKeys orders keys as a comparison sort does, whether the first two
// words need one radix pass, several or all six, and with runs of keys
// equal in both that only the third word orders.
func TestSortKeysMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, top := range []uint64{1, 200, 1 << 20, math.MaxUint64} {
		for _, top1 := range []uint64{1, 4, math.MaxUint64} {
			keys := make([][3]uint64, 5000)
			for i := range keys {
				keys[i] = [3]uint64{rng.Uint64() % top, rng.Uint64() % top1, rng.Uint64()}
			}
			want := slices.Clone(keys)
			slices.SortFunc(want, compare[[3]uint64])
			sortKeys(keys)
			if !slices.Equal(keys, want) {
				t.Fatalf("words below %d and %d: sortKeys disagrees with a comparison sort", top, top1)
			}
		}
	}
}
