package storage

import (
	"bytes"
	"fmt"
	"testing"
)

// TestCaptureThenMutate holds a barrier capture to the bytes of the
// moment it was taken while its store keeps changing: another goroutine
// encodes the captures — store by store and as one operator blob —
// over and over while 10 000 more tuples go into every store, so the
// open tail blocks fill, new blocks (and a reserve's empty ones)
// appear behind them and the spill segment grows. Every encode must
// equal the bytes serialized before the first insert, for a full and
// for a delta capture. Run it under -race: the capture shares every
// frozen block with the live store.
func TestCaptureThenMutate(t *testing.T) {
	stores := ckptFixtureStores(t.TempDir())
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	ckptFixtureFeed(stores, 0, fixtureFullN)
	wms := make([]StoreWatermark, len(stores))
	for j, s := range stores {
		_, wms[j], _ = s.AppendSnapshotSince(nil, nil)
	}
	ckptFixtureFeed(stores, fixtureFullN, fixtureDeltaN)

	next := fixtureDeltaN
	for _, mode := range []string{"full", "delta"} {
		t.Run(mode, func(t *testing.T) {
			want := make([][]byte, len(stores))
			captured := make([]JoinerSnapshot, len(stores))
			encoded := make([]JoinerSnapshot, len(stores))
			for j, s := range stores {
				wm := &wms[j]
				if mode == "full" {
					wm = nil
				}
				want[j], _, _ = s.AppendSnapshotSince(nil, wm)
				c, _, _ := s.Capture(wm)
				captured[j] = JoinerSnapshot{ID: j, Capture: c}
				encoded[j] = JoinerSnapshot{ID: j, State: want[j]}
			}
			wantBlob := ckptFixtureSnapshot(3, 0, encoded).Encode()

			stop := make(chan struct{})
			result := make(chan string)
			go func() {
				rounds := 0
				for {
					for j := range captured {
						if got := captured[j].Capture.AppendTo(nil); !bytes.Equal(got, want[j]) {
							result <- fmt.Sprintf("store %d: capture drifted after %d encodes", j, rounds)
							return
						}
					}
					if !bytes.Equal(ckptFixtureSnapshot(3, 0, captured).Encode(), wantBlob) {
						result <- "operator blob drifted"
						return
					}
					rounds++
					select {
					case <-stop:
						result <- ""
						return
					default:
					}
				}
			}()
			for _, s := range stores {
				s.Reserve(2*next, 2*next)
			}
			ckptFixtureFeed(stores, next, next+10_000)
			next += 10_000
			close(stop)
			if msg := <-result; msg != "" {
				t.Fatal(msg)
			}
			for j, s := range stores {
				c, _, _ := s.Capture(nil)
				if c.Size() == len(want[j]) {
					t.Fatalf("store %d did not change under the capture", j)
				}
			}
		})
	}
}
