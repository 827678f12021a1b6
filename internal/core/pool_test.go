package core

import (
	"testing"

	"repro/internal/join"
)

// TestPoolRoundTripAllocFree pins that recycling a buffer through each
// envelope pool allocates nothing once the pool holds one: a pool that
// boxes the slice header per put costs one allocation per envelope on
// the data plane.
func TestPoolRoundTripAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race")
	}
	cases := []struct {
		name string
		trip func()
	}{
		{"batch", func() {
			e := getEnvelope(DefaultBatchSize)
			e.tuples = append(e.tuples, join.Tuple{})
			e.refs.Store(1)
			e.release()
		}},
		{"items", func() { putItems(append(getItems(DefaultBatchSize), join.Tuple{})) }},
		{"wire", func() { putWire(append(getWire(), 1)) }},
		{"queued", func() { putQueued(append(getQueued(92), 1)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.trip() // fill the pool
			if got := minAllocsPerRun(3, 100, tc.trip); got != 0 {
				t.Fatalf("%s get/put round trip allocates %.2f times, want 0", tc.name, got)
			}
		})
	}
}

// TestSlicePoolCapHint checks that get never returns a buffer smaller
// than asked for, even when the pooled one is.
func TestSlicePoolCapHint(t *testing.T) {
	var p slicePool[int]
	p.put(make([]int, 3, 4))
	if b := p.get(64); cap(b) < 64 || len(b) != 0 {
		t.Fatalf("get(64) = len %d cap %d", len(b), cap(b))
	}
	p.put(make([]int, 5, 128))
	if b := p.get(64); len(b) != 0 || cap(b) < 64 {
		t.Fatalf("get(64) = len %d cap %d", len(b), cap(b))
	}
}
