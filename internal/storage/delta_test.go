package storage

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/join"
	"repro/internal/matrix"
)

// storeCounts maps stored seq → multiplicity across both sides and
// tiers: the equivalence currency of the delta-chain oracle.
func storeCounts(s *Store) map[uint64]int {
	out := make(map[uint64]int)
	for _, side := range []matrix.Side{matrix.SideR, matrix.SideS} {
		s.Scan(side, func(tp join.Tuple) bool {
			out[tp.Seq]++
			return true
		})
	}
	return out
}

func diffCounts(t *testing.T, label string, got, want map[uint64]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d distinct seqs, want %d", label, len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("%s: seq %d stored %d times, want %d", label, k, got[k], n)
		}
	}
}

// probeCount runs one probe against a store and returns the match count.
func probeCount(s *Store, tp join.Tuple) int64 {
	var out []join.Pair
	s.ProbeBatchCollect([]join.Tuple{tp}, &out)
	return int64(len(out))
}

// TestStoreDeltaChainEquivalence is the base+delta equivalence oracle:
// a fluctuating-skew stream is checkpointed every interval, and at
// every prefix the store rebuilt from the base+delta chain must hold
// exactly the state of one rebuilt from a full snapshot — same seq
// multiset, same probe results. A mid-stream Retain (the migration
// primitive: it rebuilds indexes and rewrites spill segments) lands
// between two delta checkpoints so the chain must survive a
// watermark-invalidating rebuild.
func TestStoreDeltaChainEquivalence(t *testing.T) {
	cases := []struct {
		name string
		cfg  func(t *testing.T) Config
	}{
		{"mem-only", func(t *testing.T) Config { return Config{} }},
		{"spilling", func(t *testing.T) Config { return Config{CapBytes: 400, Dir: t.TempDir()} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(71))
			p := join.EquiJoin("eq", nil)
			src := NewStore(p, tc.cfg(t))
			defer src.Close()

			var (
				wm      *StoreWatermark
				chain   [][]byte
				seq     uint64
				ckpts   int
				deltas  int
				retains int
			)

			const n, interval = 600, 40
			for i := 0; i < n; i++ {
				// Fluctuating skew: alternate 100-tuple phases of a hot
				// 10-key band and a broad 200-key band.
				var key int64
				if (i/100)%2 == 0 {
					key = int64(rng.Intn(10))
				} else {
					key = 10 + int64(rng.Intn(200))
				}
				seq++
				// Odd seqs route to the upper half of the u space.
				add(src, join.Tuple{Rel: matrix.Side(i % 2), Key: key, Size: 8, Seq: seq, U: seq % 2 << 63})

				// A Retain between checkpoints 7 and 8 models a migration
				// handoff straddling the delta chain: indexes rebuild and
				// spill segments rewrite, invalidating the watermark.
				if i == 7*interval+13 {
					src.Retain(matrix.SideR, matrix.Top{Shift: 63, Val: 0})
					retains++
				}

				if (i+1)%interval != 0 {
					continue
				}
				ckpts++
				// Compact every 5th checkpoint: fold the chain back to one
				// full payload, as the operator's compaction rule does.
				useWM := wm
				if ckpts%5 == 0 {
					useWM = nil
				}
				payload, next, full := src.AppendSnapshotSince(nil, useWM)
				if useWM == nil && !full {
					t.Fatalf("ckpt %d: nil watermark did not produce a full payload", ckpts)
				}
				if full {
					chain = chain[:0]
				} else {
					deltas++
				}
				chain = append(chain, payload)
				wm = &next // the simulated backend commit succeeded

				want := storeCounts(src)

				chainDst := NewStore(p, Config{})
				if err := chainDst.RestoreSnapshotChain(append([][]byte(nil), chain...)); err != nil {
					t.Fatalf("ckpt %d: chain restore (%d links): %v", ckpts, len(chain), err)
				}
				fullDst := NewStore(p, Config{})
				whole, _, _ := src.AppendSnapshotSince(nil, nil)
				if err := fullDst.RestoreSnapshot(whole); err != nil {
					t.Fatalf("ckpt %d: full restore: %v", ckpts, err)
				}

				diffCounts(t, "chain vs live", storeCounts(chainDst), want)
				diffCounts(t, "full vs live", storeCounts(fullDst), want)
				for _, k := range []int64{0, 5, 42, 137} {
					probe := join.Tuple{Rel: matrix.SideR, Key: k, Size: 8, Seq: seq + 1}
					if c, f, l := probeCount(chainDst, probe), probeCount(fullDst, probe), probeCount(src, probe); c != l || f != l {
						t.Fatalf("ckpt %d key %d: chain probe %d, full probe %d, live probe %d", ckpts, k, c, f, l)
					}
				}
				chainDst.Close()
				fullDst.Close()
			}
			if deltas == 0 {
				t.Fatal("the stream never produced a delta payload; the oracle tested nothing")
			}
			if retains != 1 {
				t.Fatalf("retain ran %d times, want 1", retains)
			}
		})
	}
}

// TestDeltaWatermarkRecoversFailedCommit: a delta whose backend commit
// failed must not advance the watermark; the next delta, cut against
// the last *committed* watermark, re-covers the lost suffix so the
// chain skips the failed payload entirely.
func TestDeltaWatermarkRecoversFailedCommit(t *testing.T) {
	p := join.EquiJoin("eq", nil)
	src := NewStore(p, Config{})
	defer src.Close()
	var seq uint64
	feed := func(n int) {
		for i := 0; i < n; i++ {
			seq++
			add(src, join.Tuple{Rel: matrix.Side(int(seq) % 2), Key: int64(seq % 17), Size: 8, Seq: seq})
		}
	}

	feed(100)
	base, wm, full := src.AppendSnapshotSince(nil, nil)
	if !full {
		t.Fatal("base payload not full")
	}

	feed(50)
	lost, _, _ := src.AppendSnapshotSince(nil, &wm)
	_ = lost // the commit of this delta failed: wm stays put

	feed(50)
	delta, _, full := src.AppendSnapshotSince(nil, &wm)
	if full {
		t.Fatal("re-covering delta unexpectedly degraded to full")
	}

	dst := NewStore(p, Config{})
	defer dst.Close()
	if err := dst.RestoreSnapshotChain([][]byte{base, delta}); err != nil {
		t.Fatalf("restore base + re-covering delta: %v", err)
	}
	diffCounts(t, "re-covered chain vs live", storeCounts(dst), storeCounts(src))
}

// TestRestoreChainDecodeErrorIsCorrupt: a chain that passes every CRC
// but is logically inconsistent at the join layer (here: a delta
// payload with its base generation missing, so the splice finds no
// full record) must classify as ErrCorrupt — Restore then falls back
// to an older generation instead of aborting, like every other
// corruption class.
func TestRestoreChainDecodeErrorIsCorrupt(t *testing.T) {
	p := join.EquiJoin("eq", nil)
	src := NewStore(p, Config{})
	defer src.Close()
	var seq uint64
	feed := func(n int) {
		for i := 0; i < n; i++ {
			seq++
			add(src, join.Tuple{Rel: matrix.Side(int(seq) % 2), Key: int64(seq % 7), Size: 8, Seq: seq})
		}
	}

	feed(40)
	_, wm, full := src.AppendSnapshotSince(nil, nil)
	if !full {
		t.Fatal("base payload not full")
	}
	feed(40)
	delta, _, full := src.AppendSnapshotSince(nil, &wm)
	if full {
		t.Fatal("second payload unexpectedly full; the test needs a delta")
	}

	dst := NewStore(p, Config{})
	defer dst.Close()
	err := dst.RestoreSnapshotChain([][]byte{delta})
	if err == nil {
		t.Fatal("restore accepted a baseless delta chain")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("baseless-chain error %v does not wrap ErrCorrupt; Restore would abort instead of falling back", err)
	}
}
