package join

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

func mkTuple(rel matrix.Side, key int64) Tuple {
	return Tuple{Rel: rel, Key: key, Size: 8}
}

func TestHashIndexBasics(t *testing.T) {
	h := NewHashIndex()
	if h.Len() != 0 || h.Bytes() != 0 {
		t.Fatal("new index not empty")
	}
	h.Insert(mkTuple(matrix.SideR, 1))
	h.Insert(mkTuple(matrix.SideR, 1))
	h.Insert(mkTuple(matrix.SideR, 2))
	if h.Len() != 3 || h.Bytes() != 24 {
		t.Fatalf("Len=%d Bytes=%d", h.Len(), h.Bytes())
	}
	var got int
	h.Probe(mkTuple(matrix.SideS, 1), func(Tuple) { got++ })
	if got != 2 {
		t.Errorf("probe(1) matched %d, want 2", got)
	}
	got = 0
	h.Probe(mkTuple(matrix.SideS, 9), func(Tuple) { got++ })
	if got != 0 {
		t.Errorf("probe(9) matched %d, want 0", got)
	}
}

func TestHashIndexRetain(t *testing.T) {
	h := NewHashIndex()
	for i := int64(0); i < 100; i++ {
		// Keys 5-9 route to the upper half of the u space.
		tp := mkTuple(matrix.SideR, i%10)
		tp.U = uint64(tp.Key/5) << 63
		h.Insert(tp)
	}
	removed := h.Retain(matrix.Top{Shift: 63, Val: 0})
	if removed != 50 || h.Len() != 50 {
		t.Fatalf("removed=%d len=%d", removed, h.Len())
	}
	h.Scan(func(tp Tuple) bool {
		if tp.Key >= 5 {
			t.Fatalf("kept tuple with key %d", tp.Key)
		}
		return true
	})
	if h.Bytes() != 50*8 {
		t.Errorf("Bytes=%d after retain", h.Bytes())
	}
}

func TestScanIndexProbeMatchesAll(t *testing.T) {
	s := NewScanIndex()
	for i := int64(0); i < 20; i++ {
		s.Insert(mkTuple(matrix.SideS, i))
	}
	n := 0
	s.Probe(mkTuple(matrix.SideR, 3), func(Tuple) { n++ })
	if n != 20 {
		t.Errorf("scan probe matched %d, want 20", n)
	}
}

func TestScanIndexScanStopsEarly(t *testing.T) {
	s := NewScanIndex()
	for i := int64(0); i < 10; i++ {
		s.Insert(mkTuple(matrix.SideS, i))
	}
	n := 0
	s.Scan(func(Tuple) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("scan visited %d, want 3", n)
	}
}

func TestOrderedIndexRangeProbe(t *testing.T) {
	o := NewOrderedIndex(2)
	keys := []int64{5, 1, 9, 3, 7, 5, 4, 100, -3}
	for _, k := range keys {
		o.Insert(mkTuple(matrix.SideS, k))
	}
	var got []int64
	o.Probe(mkTuple(matrix.SideR, 5), func(tp Tuple) { got = append(got, tp.Key) })
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	want := []int64{3, 4, 5, 5, 7}
	if len(got) != len(want) {
		t.Fatalf("probe(5,±2) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("probe(5,±2) = %v, want %v", got, want)
		}
	}
}

func TestOrderedIndexLargeRandomAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 5000
	o := NewOrderedIndex(10)
	var ref []int64
	for i := 0; i < n; i++ {
		k := int64(rng.Intn(1000) - 500)
		o.Insert(mkTuple(matrix.SideS, k))
		ref = append(ref, k)
	}
	if o.Len() != n {
		t.Fatalf("Len=%d", o.Len())
	}
	for trial := 0; trial < 200; trial++ {
		probe := int64(rng.Intn(1200) - 600)
		want := 0
		for _, k := range ref {
			if k >= probe-10 && k <= probe+10 {
				want++
			}
		}
		got := 0
		o.Probe(mkTuple(matrix.SideR, probe), func(Tuple) { got++ })
		if got != want {
			t.Fatalf("probe(%d): got %d matches, want %d", probe, got, want)
		}
	}
}

func TestOrderedIndexScanIsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	o := NewOrderedIndex(0)
	for i := 0; i < 3000; i++ {
		o.Insert(mkTuple(matrix.SideR, int64(rng.Intn(100000))))
	}
	last := int64(-1)
	count := 0
	o.Scan(func(tp Tuple) bool {
		if tp.Key < last {
			t.Fatalf("scan out of order: %d after %d", tp.Key, last)
		}
		last = tp.Key
		count++
		return true
	})
	if count != 3000 {
		t.Fatalf("scan visited %d", count)
	}
}

func TestOrderedIndexRetain(t *testing.T) {
	o := NewOrderedIndex(1)
	for i := int64(0); i < 1000; i++ {
		// Odd keys route to the upper half of the u space.
		tp := mkTuple(matrix.SideS, i)
		tp.U = uint64(i%2) << 63
		o.Insert(tp)
	}
	removed := o.Retain(matrix.Top{Shift: 63, Val: 0})
	if removed != 500 || o.Len() != 500 {
		t.Fatalf("removed=%d len=%d", removed, o.Len())
	}
	got := 0
	o.Probe(mkTuple(matrix.SideR, 10), func(tp Tuple) {
		if tp.Key%2 != 0 {
			t.Fatalf("kept odd key %d", tp.Key)
		}
		got++
	})
	// Width 1 around 10 covers {9,10,11}; the surviving even key is 10.
	if got != 1 {
		t.Fatalf("probe after retain matched %d, want 1", got)
	}
}

func TestOrderedIndexDegenerateWidthZero(t *testing.T) {
	o := NewOrderedIndex(0)
	o.Insert(mkTuple(matrix.SideS, 42))
	o.Insert(mkTuple(matrix.SideS, 43))
	n := 0
	o.Probe(mkTuple(matrix.SideR, 42), func(Tuple) { n++ })
	if n != 1 {
		t.Errorf("width-0 probe matched %d", n)
	}
}

func TestNewIndexKindDispatch(t *testing.T) {
	if _, ok := NewIndex(EquiJoin("e", nil)).(*HashIndex); !ok {
		t.Error("equi should use hash index")
	}
	if _, ok := NewIndex(BandJoin("b", 3, nil)).(*OrderedIndex); !ok {
		t.Error("band should use ordered index")
	}
	if _, ok := NewIndex(ThetaJoin("t", func(r, s Tuple) bool { return true })).(*ScanIndex); !ok {
		t.Error("theta should use scan index")
	}
}

// Property: for any key multiset and any band probe, the ordered index
// returns exactly the keys within the band.
func TestQuickOrderedIndexBandCount(t *testing.T) {
	f := func(keys []int16, probe int16, width uint8) bool {
		w := int64(width % 16)
		o := NewOrderedIndex(w)
		want := 0
		for _, k := range keys {
			o.Insert(mkTuple(matrix.SideS, int64(k)))
			if d := int64(k) - int64(probe); d >= -w && d <= w {
				want++
			}
		}
		got := 0
		o.Probe(mkTuple(matrix.SideR, int64(probe)), func(Tuple) { got++ })
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTupleBytes(t *testing.T) {
	if (Tuple{Size: 16}).Bytes() != 16 {
		t.Error("Size should win")
	}
	if (Tuple{Payload: make([]byte, 5)}).Bytes() != 5 {
		t.Error("Payload length fallback")
	}
	if (Tuple{}).Bytes() != 1 {
		t.Error("floor of 1")
	}
}
