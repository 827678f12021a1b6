package storage

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/join"
	"repro/internal/matrix"
)

// TestCaptureThenMutate holds a barrier capture to the bytes of the
// moment it was taken while its store keeps changing: another goroutine
// encodes the captures — store by store and as one operator blob —
// over and over while 10 000 more tuples go into every store, so the
// stores' own open blocks fill, new blocks appear behind them and the
// spill segment grows. Every encode must
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
				c, _, _, _ := s.Capture(wm)
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
						if got := captured[j].Capture.AppendTo(nil, nil); !bytes.Equal(got, want[j]) {
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
			ckptFixtureFeed(stores, next, next+10_000)
			next += 10_000
			close(stop)
			if msg := <-result; msg != "" {
				t.Fatal(msg)
			}
			for j, s := range stores {
				c, _, _, _ := s.Capture(nil)
				if c.Size(nil) == len(want[j]) {
					t.Fatalf("store %d did not change under the capture", j)
				}
			}
		})
	}
}

// TestCaptureFullSizeMatchesFullEncoding holds the size the compaction
// rule reads to the bytes it stands for: at every barrier of a chain —
// hash, scan, spilling and ordered stores, payloads and dummies, and a
// Retain that invalidates the watermarks mid-chain — a delta capture's
// FullSize equals the length of a full capture taken at the same
// state, and OperatorSnapshot.FullSize equals the length of the blob
// the full captures encode to. In the shared case three stores view the
// same writers' windows, so the blob writes those blocks once, in its
// block table, and FullSize must count them once too.
func TestCaptureFullSizeMatchesFullEncoding(t *testing.T) {
	for _, shared := range []bool{false, true} {
		t.Run(map[bool]string{false: "private", true: "shared"}[shared], func(t *testing.T) {
			stores := ckptFixtureStores(t.TempDir())
			feed := func(from, to int) { ckptFixtureFeed(stores, from, to) }
			if shared {
				stores = sharedFixtureStores()
				var ws sharedFixtureWriters
				feed = func(from, to int) { ws.feed(stores, from, to) }
			}
			defer func() {
				for _, s := range stores {
					s.Close()
				}
			}()
			wms := make([]*StoreWatermark, len(stores))
			from := 0
			for step, to := range []int{300, 700, 1100, 1400, 2000} {
				feed(from, to)
				from = to
				if step == 3 {
					for _, s := range stores {
						s.Retain(matrix.SideR, matrix.Top{Shift: 63, Val: 0})
					}
				}
				var delta, full []JoinerSnapshot
				for i, s := range stores {
					c, next, _, _ := s.Capture(wms[i])
					whole, _, _, _ := s.Capture(nil)
					if got, want := c.FullSize(nil), whole.Size(nil); got != want {
						t.Fatalf("step %d store %d: delta capture measures a full one at %d B, it is %d B", step, i, got, want)
					}
					if whole.FullSize(nil) != whole.Size(nil) {
						t.Fatalf("step %d store %d: full capture measures itself at %d B, it is %d B", step, i, whole.FullSize(nil), whole.Size(nil))
					}
					delta = append(delta, JoinerSnapshot{ID: i, Capture: c})
					full = append(full, JoinerSnapshot{ID: i, Capture: whole})
					wms[i] = &next
				}
				id := uint64(step + 1)
				blob := ckptFixtureSnapshot(id, 0, full).Encode()
				if got, want := ckptFixtureSnapshot(id, id-1, delta).FullSize(), len(blob); got != want {
					t.Fatalf("step %d: snapshot measures a full blob at %d B, it is %d B", step, got, want)
				}
				if got, want := ckptFixtureSnapshot(id, 0, full).FullSize(), len(blob); got != want {
					t.Fatalf("step %d: full snapshot measures itself at %d B, it is %d B", step, got, want)
				}
				if tabled := blobHasTable(t, blob); tabled != shared {
					t.Fatalf("step %d: blob has a block table: %v, want %v", step, tabled, shared)
				}
			}
		})
	}
}

// sharedFixtureStores builds four equi stores for the shared fixture:
// the first three view the same windows, as the joiners of a grid row
// do, and the fourth copies every tuple through its own writer.
func sharedFixtureStores() []*Store {
	stores := make([]*Store, 4)
	for i := range stores {
		stores[i] = NewStore(join.EquiJoin("fx-shared", nil), Config{})
	}
	return stores
}

// sharedFixtureWriters are the shared fixture's two slot writers, one
// per side.
type sharedFixtureWriters [2]join.BlockWriter

// feed writes tuples [from, to) of the fixture stream (ckptFixtureTuple)
// side by side, in runs of up to five, through the side's writer, and
// stores each run as a view of its window in the first three stores and
// as a copy in the last.
func (ws *sharedFixtureWriters) feed(stores []*Store, from, to int) {
	var runs [2][]join.Tuple
	for i := from; i < to; i++ {
		tp := ckptFixtureTuple(i)
		runs[tp.Rel] = append(runs[tp.Rel], tp)
	}
	for side, ts := range runs {
		bw := &ws[side]
		if !bw.Shared() {
			bw.Reset(len(stores)-1, false, 0)
		}
		for len(ts) > 0 {
			run := ts[:min(5, len(ts))]
			ts = ts[len(run):]
			w := bw.AppendRun(run)
			for _, s := range stores[:len(stores)-1] {
				s.InsertWindow(run, w)
			}
			stores[len(stores)-1].InsertBatch(run)
		}
	}
}

// blobHasTable reports whether a checkpoint blob holds a blocks record.
func blobHasTable(t testing.TB, blob []byte) bool {
	t.Helper()
	for off := 0; off < len(blob); {
		typ, _, next, err := nextRecord(blob, off)
		if err != nil {
			t.Fatalf("blob: %v", err)
		}
		if typ == recBlocks {
			return true
		}
		off = next
	}
	return false
}
