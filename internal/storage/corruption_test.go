package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/join"
	"repro/internal/matrix"
)

// fixtureSnapshot builds a small but structurally complete checkpoint.
func fixtureSnapshot(id uint64) *OperatorSnapshot {
	return &OperatorSnapshot{
		ID:        id,
		Epoch:     3,
		Mapping:   matrix.Mapping{N: 2, M: 2},
		Table:     []int{0, 1, 2, 3},
		NumRe:     4,
		Seq:       12345,
		RouteSeed: -7,
		Lanes:     []LaneCursor{{Next: 100, End: 164}, {Next: 228, End: 292}},
		Cuts:      []int64{10, 20, 30, 40},
		Joiners: []JoinerSnapshot{
			{ID: 0, Emitted: 5, State: []byte("state-zero")},
			{ID: 1, Emitted: 0, State: nil},
			{ID: 2, Emitted: 17, State: []byte("state-two")},
			{ID: 3, Emitted: 2, State: []byte("s3")},
		},
	}
}

func TestOperatorSnapshotRoundTrip(t *testing.T) {
	want := fixtureSnapshot(9)
	got, err := DecodeOperatorSnapshot(9, want.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.ID != want.ID || got.Epoch != want.Epoch || got.Mapping != want.Mapping ||
		got.NumRe != want.NumRe || got.Seq != want.Seq || got.RouteSeed != want.RouteSeed {
		t.Fatalf("meta mismatch: got %+v", got)
	}
	if len(got.Table) != 4 || len(got.Lanes) != 2 || len(got.Cuts) != 4 || len(got.Joiners) != 4 {
		t.Fatalf("shape mismatch: %+v", got)
	}
	if string(got.Joiners[2].State) != "state-two" || got.Joiners[2].Emitted != 17 {
		t.Fatalf("joiner 2 mismatch: %+v", got.Joiners[2])
	}
}

// TestDecodeSnapshotCorruption drives DecodeOperatorSnapshot through a
// table of structural corruptions: each must return an error wrapping
// ErrCorrupt and none may panic.
func TestDecodeSnapshotCorruption(t *testing.T) {
	valid := fixtureSnapshot(7).Encode()
	cases := []struct {
		name string
		id   uint64
		data []byte
	}{
		{"stale blob id", 8, valid},
		{"empty blob", 7, nil},
		{"trailing bytes", 7, append(append([]byte(nil), valid...), "junk"...)},
		{"bad magic", 7, func() []byte {
			// Re-encode with a corrupted header record: flip a magic byte
			// and fix up nothing — the record CRC catches it first, which
			// is still ErrCorrupt.
			d := append([]byte(nil), valid...)
			d[9] ^= 0xff // inside the header record's typ/payload region
			return d
		}()},
		{"mapping table mismatch", 7, func() []byte {
			s := fixtureSnapshot(7)
			s.Table = s.Table[:3] // J()==4 but 3 cells
			return s.Encode()
		}()},
		{"joiner count mismatch", 7, func() []byte {
			s := fixtureSnapshot(7)
			s.Joiners = s.Joiners[:2]
			return s.Encode()
		}()},
		{"invalid mapping", 7, func() []byte {
			s := fixtureSnapshot(7)
			s.Mapping = matrix.Mapping{N: 3, M: 1}
			s.Table = []int{0, 1, 2}
			s.Joiners = s.Joiners[:3]
			return s.Encode()
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeOperatorSnapshot(tc.id, tc.data)
			if err == nil {
				t.Fatal("decode accepted corrupt input")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
		})
	}
}

// TestDecodeSnapshotTruncationSweep: every proper prefix of a valid
// blob must fail cleanly.
func TestDecodeSnapshotTruncationSweep(t *testing.T) {
	valid := fixtureSnapshot(7).Encode()
	for cut := 0; cut < len(valid); cut++ {
		if _, err := DecodeOperatorSnapshot(7, valid[:cut]); err == nil {
			t.Fatalf("decode accepted a %d-byte prefix of %d", cut, len(valid))
		}
	}
}

// TestDecodeSnapshotBitflipSweep: flipping any single byte of the blob
// must be detected (every byte is covered by a record CRC, a length
// field validated against it, or the trailer count).
func TestDecodeSnapshotBitflipSweep(t *testing.T) {
	valid := fixtureSnapshot(7).Encode()
	for off := 0; off < len(valid); off++ {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0xff
		if _, err := DecodeOperatorSnapshot(7, mut); err == nil {
			t.Fatalf("decode accepted a blob with byte %d flipped", off)
		}
	}
}

// loadNewest is the test shim for the pre-generation "Latest" call:
// newest generation's chain, or nil blobs on an empty backend.
func loadNewest(t *testing.T, b Backend) ([]Blob, error) {
	t.Helper()
	gens, err := b.Generations()
	if err != nil {
		return nil, err
	}
	if len(gens) == 0 {
		return nil, nil
	}
	return b.Load(gens[0])
}

// manifestPath names gen's manifest file (one manifest per committed
// generation since the keep-K backend).
func manifestPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("MANIFEST-%016x", gen))
}

// TestFileBackendCorruption munges the on-disk files behind a committed
// checkpoint: every corruption must surface as an ErrCorrupt-wrapped
// error from Load, never a panic and never silently-wrong data.
//
// Regression note (durable rename): writeAtomic fsyncs the parent
// directory after every manifest/blob rename. Without the directory
// sync a power loss after Write returns could roll the directory back
// to a state where the manifest entry itself is missing — the blob
// validates but the generation silently vanishes, which is worse than
// any corruption below because nothing ever reports it. The cases here
// only exercise the detectable half (torn file contents); the
// directory fsync is what keeps the undetectable half from existing.
func TestFileBackendCorruption(t *testing.T) {
	blob := fixtureSnapshot(4).Encode()
	cases := []struct {
		name  string
		munge func(t *testing.T, dir string)
	}{
		{"truncated manifest", func(t *testing.T, dir string) {
			m := manifestPath(dir, 4)
			data, err := os.ReadFile(m)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(m, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"manifest byte flipped", func(t *testing.T, dir string) {
			m := manifestPath(dir, 4)
			data, err := os.ReadFile(m)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0xff
			if err := os.WriteFile(m, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated blob", func(t *testing.T, dir string) {
			p := snapPath(t, dir)
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, data[:len(data)-7], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"blob byte flipped", func(t *testing.T, dir string) {
			p := snapPath(t, dir)
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/3] ^= 0x01
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"blob deleted", func(t *testing.T, dir string) {
			if err := os.Remove(snapPath(t, dir)); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			b, err := NewFileBackend(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Write(4, blob, nil); err != nil {
				t.Fatalf("write: %v", err)
			}
			tc.munge(t, dir)
			_, lerr := loadNewest(t, b)
			if lerr == nil {
				t.Fatal("Load returned a corrupted checkpoint without error")
			}
			if !errors.Is(lerr, ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", lerr)
			}
		})
	}
}

func snapPath(t *testing.T, dir string) string {
	t.Helper()
	snaps, err := filepath.Glob(filepath.Join(dir, "ckpt-*.snap"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("expected one blob, got %v (err %v)", snaps, err)
	}
	return snaps[0]
}

func TestFileBackendEmptyDir(t *testing.T) {
	b, err := NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	gens, err := b.Generations()
	if err != nil || len(gens) != 0 {
		t.Fatalf("empty backend: gens=%v err=%v", gens, err)
	}
}

// TestFileBackendKeepGC: with keep K (default 2), committing id n
// retains the newest K generations and garbage-collects blobs only
// the dropped generations reference.
func TestFileBackendKeepGC(t *testing.T) {
	dir := t.TempDir()
	b, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 3; id++ {
		if err := b.Write(id, fixtureSnapshot(id).Encode(), nil); err != nil {
			t.Fatal(err)
		}
	}
	gens, err := b.Generations()
	if err != nil || len(gens) != 2 || gens[0] != 3 || gens[1] != 2 {
		t.Fatalf("generations: %v err=%v", gens, err)
	}
	blobs, err := b.Load(3)
	if err != nil || len(blobs) != 1 || blobs[0].Gen != 3 {
		t.Fatalf("load newest: %v err=%v", blobs, err)
	}
	if string(blobs[0].Data) != string(fixtureSnapshot(3).Encode()) {
		t.Fatal("load returned stale blob bytes")
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.snap"))
	if len(snaps) != 2 {
		t.Fatalf("want 2 retained blobs, got %v", snaps)
	}
	manifests, _ := filepath.Glob(filepath.Join(dir, "MANIFEST-*"))
	if len(manifests) != 2 {
		t.Fatalf("want 2 retained manifests, got %v", manifests)
	}
	if _, err := os.Stat(manifestPath(dir, 1)); !os.IsNotExist(err) {
		t.Fatalf("generation 1 manifest not collected: %v", err)
	}
}

// TestFileBackendDeltaChainGC: a delta generation's manifest pins its
// base blobs past the base's own manifest being GC'd, so Load of a
// retained delta always finds its whole chain.
func TestFileBackendDeltaChainGC(t *testing.T) {
	dir := t.TempDir()
	b, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	// gen 1 full; 2 and 3 are deltas over it. Keep 2 drops gen 1's
	// manifest after 3 commits, but blobs 1 and 2 stay referenced.
	if err := b.Write(1, []byte("base-blob"), nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(2, []byte("delta-two"), []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(3, []byte("delta-three"), []uint64{1, 2}); err != nil {
		t.Fatal(err)
	}
	gens, err := b.Generations()
	if err != nil || len(gens) != 2 || gens[0] != 3 || gens[1] != 2 {
		t.Fatalf("generations: %v err=%v", gens, err)
	}
	blobs, err := b.Load(3)
	if err != nil {
		t.Fatalf("load chain: %v", err)
	}
	want := []string{"base-blob", "delta-two", "delta-three"}
	if len(blobs) != 3 {
		t.Fatalf("chain length %d, want 3", len(blobs))
	}
	for i, w := range want {
		if blobs[i].Gen != uint64(i+1) || string(blobs[i].Data) != w {
			t.Fatalf("chain[%d] = gen %d %q, want gen %d %q",
				i, blobs[i].Gen, blobs[i].Data, i+1, w)
		}
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.snap"))
	if len(snaps) != 3 {
		t.Fatalf("want 3 live blobs (base pinned by deltas), got %v", snaps)
	}
}

// TestStoreSnapshotRoundTripWithSpill checkpoints a store whose state
// straddles the memory and disk tiers, restores it into a fresh
// unbounded store, and compares the stored multiset.
func TestStoreSnapshotRoundTripWithSpill(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := join.EquiJoin("eq", nil)
	src := NewStore(p, Config{CapBytes: 200, Dir: t.TempDir()})
	defer src.Close()
	var seq uint64
	for i := 0; i < 400; i++ {
		seq++
		add(src, tup(matrix.Side(i%2), int64(rng.Intn(50)), seq))
	}
	if !src.Spilled() {
		t.Fatal("expected spill")
	}

	count := func(s *Store) map[uint64]int {
		out := make(map[uint64]int)
		for _, side := range []matrix.Side{matrix.SideR, matrix.SideS} {
			s.Scan(side, func(tp join.Tuple) bool {
				out[tp.Seq]++
				return true
			})
		}
		return out
	}
	want := count(src)

	buf, _, _ := src.AppendSnapshotSince(nil, nil)
	dst := NewStore(p, Config{})
	defer dst.Close()
	if err := dst.RestoreSnapshot(buf); err != nil {
		t.Fatalf("restore: %v", err)
	}
	got := count(dst)
	if len(got) != len(want) {
		t.Fatalf("restored %d distinct seqs, want %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("seq %d: got %d, want %d", k, got[k], n)
		}
	}

	// The restored store must also still join: probe a tuple against it.
	n2 := probeCount(dst, tup(matrix.SideR, 25, seq+1))
	n1 := probeCount(src, tup(matrix.SideR, 25, seq+1))
	if n1 != n2 {
		t.Fatalf("restored probe matched %d, original %d", n2, n1)
	}
}

// TestStoreRestoreSnapshotCorruption: truncated or trailing-garbage
// store snapshots must fail cleanly.
func TestStoreRestoreSnapshotCorruption(t *testing.T) {
	p := join.EquiJoin("eq", nil)
	src := NewStore(p, Config{})
	defer src.Close()
	for i := 1; i <= 50; i++ {
		add(src, tup(matrix.Side(i%2), int64(i%7), uint64(i)))
	}
	buf, _, _ := src.AppendSnapshotSince(nil, nil)

	t.Run("trailing garbage", func(t *testing.T) {
		dst := NewStore(p, Config{})
		defer dst.Close()
		if err := dst.RestoreSnapshot(append(append([]byte(nil), buf...), 0xEE)); err == nil {
			t.Fatal("restore accepted trailing garbage")
		}
	})
	t.Run("truncation sweep", func(t *testing.T) {
		for cut := 0; cut < len(buf); cut += 11 {
			dst := NewStore(p, Config{})
			if err := dst.RestoreSnapshot(buf[:cut]); err == nil {
				dst.Close()
				t.Fatalf("restore accepted a %d-byte prefix of %d", cut, len(buf))
			}
			dst.Close()
		}
	})
}

// TestFileBackendManifestTempLeftovers: a crash during writeAtomic can
// leave a MANIFEST-<gen>.tmp-XXXX temp file behind. It was never
// committed (the rename is the commit point), so it must not parse as
// a generation — a phantom would occupy a keep slot, surface through
// Generations, and abort blob GC — and reopening the backend sweeps it.
func TestFileBackendManifestTempLeftovers(t *testing.T) {
	dir := t.TempDir()
	b, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 2; id++ {
		if err := b.Write(id, fixtureSnapshot(id).Encode(), nil); err != nil {
			t.Fatal(err)
		}
	}
	leftover := filepath.Join(dir, manifestName(3)+".tmp-12345")
	if err := os.WriteFile(leftover, []byte("partial manifest"), 0o644); err != nil {
		t.Fatal(err)
	}

	gens, err := b.Generations()
	if err != nil || len(gens) != 2 || gens[0] != 2 || gens[1] != 1 {
		t.Fatalf("generations with temp leftover: %v err=%v, want [2 1]", gens, err)
	}
	// A new commit must still GC the oldest real generation: the phantom
	// may not count against keep or poison the surviving-chain walk.
	if err := b.Write(3, fixtureSnapshot(3).Encode(), nil); err != nil {
		t.Fatal(err)
	}
	gens, err = b.Generations()
	if err != nil || len(gens) != 2 || gens[0] != 3 || gens[1] != 2 {
		t.Fatalf("generations after commit over leftover: %v err=%v, want [3 2]", gens, err)
	}
	if _, err := os.Stat(manifestPath(dir, 1)); !os.IsNotExist(err) {
		t.Fatalf("generation 1 manifest not collected: %v", err)
	}

	// Reopening the directory sweeps crash leftovers.
	if _, err := NewFileBackend(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Fatalf("temp leftover survived reopen: %v", err)
	}
}

// TestFileBackendTransientReadErrorIsNotCorrupt: only a *missing* file
// is corruption (fall back to an older generation); any other read
// failure is transient I/O trouble that must surface unwrapped so the
// caller retries instead of silently restoring stale state. A
// directory in the file's place yields exactly such a non-NotExist
// read error.
func TestFileBackendTransientReadErrorIsNotCorrupt(t *testing.T) {
	for _, tc := range []struct {
		name   string
		target func(t *testing.T, dir string) string
	}{
		{"manifest", func(t *testing.T, dir string) string { return manifestPath(dir, 4) }},
		{"blob", snapPath},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			b, err := NewFileBackend(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Write(4, fixtureSnapshot(4).Encode(), nil); err != nil {
				t.Fatal(err)
			}
			p := tc.target(t, dir)
			if err := os.Remove(p); err != nil {
				t.Fatal(err)
			}
			if err := os.Mkdir(p, 0o755); err != nil {
				t.Fatal(err)
			}
			_, lerr := b.Load(4)
			if lerr == nil {
				t.Fatal("Load succeeded reading a directory")
			}
			if errors.Is(lerr, ErrCorrupt) {
				t.Fatalf("transient read error %v wraps ErrCorrupt; fallback would skip a live generation", lerr)
			}
		})
	}
}

// sharedFixtureChain feeds the shared fixture's stores (see
// sharedFixtureWriters) and returns them with the blobs of a full
// checkpoint after fixtureFullN tuples and a delta on it after
// fixtureDeltaN, generations 1 and 2.
func sharedFixtureChain(t testing.TB) (stores []*Store, full, delta []byte) {
	t.Helper()
	stores = sharedFixtureStores()
	var ws sharedFixtureWriters
	ws.feed(stores, 0, fixtureFullN)
	joiners := make([]JoinerSnapshot, len(stores))
	wms := make([]StoreWatermark, len(stores))
	for j, s := range stores {
		var c *StoreCapture
		c, wms[j], _, _ = s.Capture(nil)
		joiners[j] = JoinerSnapshot{ID: j, Emitted: int64(j), Capture: c}
	}
	full = ckptFixtureSnapshot(1, 0, joiners).Encode()
	ws.feed(stores, fixtureFullN, fixtureDeltaN)
	for j, s := range stores {
		c, _, _, _ := s.Capture(&wms[j])
		joiners[j] = JoinerSnapshot{ID: j, Emitted: int64(j), Capture: c}
	}
	delta = ckptFixtureSnapshot(2, 1, joiners).Encode()
	if !blobHasTable(t, full) || !blobHasTable(t, delta) {
		t.Fatal("shared fixture blobs have no block table")
	}
	return stores, full, delta
}

// TestSharedBlocksRestoreShared restores the shared fixture's chain: every
// store must hold what it held at the delta's barrier, and the three
// stores that viewed the same windows must view the same restored
// blocks again, each block counting its three viewers as sharers.
func TestSharedBlocksRestoreShared(t *testing.T) {
	stores, full, delta := sharedFixtureChain(t)
	snap, err := DecodeOperatorSnapshotChain([]Blob{{Gen: 1, Data: full}, {Gen: 2, Data: delta}})
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	restored := sharedFixtureStores()
	for j, js := range snap.Joiners {
		if err := js.Restore(restored[j]); err != nil {
			t.Fatalf("store %d: restore: %v", j, err)
		}
		diffCounts(t, fmt.Sprintf("store %d", j), storeCounts(restored[j]), storeCounts(stores[j]))
	}
	for _, side := range []matrix.Side{matrix.SideR, matrix.SideS} {
		blocks := map[any]int{}
		for j, s := range restored[:3] {
			for _, v := range s.Views(side) {
				if v.Sharers != 3 {
					t.Fatalf("store %d side %v views a restored block of %d sharers, want 3", j, side, v.Sharers)
				}
				blocks[v.Block] |= 1 << j
			}
		}
		for _, seen := range blocks {
			if seen != 0b111 {
				t.Fatalf("side %v: a restored block is viewed by stores %03b, want all three", side, seen)
			}
		}
		for _, v := range restored[3].Views(side) {
			if blocks[v.Block] != 0 || v.Sharers != 1 {
				t.Fatalf("side %v: the private store views a shared block", side)
			}
		}
	}
	for _, s := range append(stores, restored...) {
		s.Close()
	}
}

// rewriteRecord returns a copy of blob whose n-th record of type typ
// carries edit(payload) as its payload, framed and checksummed anew.
func rewriteRecord(t *testing.T, blob []byte, typ byte, n int, edit func(p []byte) []byte) []byte {
	t.Helper()
	var out []byte
	for off := 0; off < len(blob); {
		rt, payload, next, err := nextRecord(blob, off)
		if err != nil {
			t.Fatalf("blob: %v", err)
		}
		if rt == typ {
			if n == 0 {
				payload = edit(append([]byte(nil), payload...))
			}
			n--
		}
		out = appendRecord(out, rt, payload)
		off = next
	}
	if n >= 0 {
		t.Fatalf("blob has no record %d of type %d", n, typ)
	}
	return out
}

// appendRecord frames payload as a record of type typ onto buf.
func appendRecord(buf []byte, typ byte, payload []byte) []byte {
	rec := make([]byte, recFrame+len(payload))
	putRecord(rec, typ, func(p []byte) []byte { return append(p, payload...) })
	return append(buf, rec...)
}

// Offsets into the shared fixture's records: the first block record of
// joiner 0's R side — a reference, since the store's first R view is of
// a shared block — behind the joiner head, the store payload's kind and
// memory length, the Local payload's version and the side's kind, byte
// volume and block count; and an entry's fill in a blocks record,
// behind the entry's first row.
const (
	refAt       = joinerHead + 1 + 4 + 1 + 1 + 8 + 4
	refEntryAt  = refAt + 4 + 1
	refRowAt    = refEntryAt + 4
	entryFillAt = 4
)

// TestDecodeSnapshotBadBlockReferences corrupts the block table of a
// checkpoint and its references, each record re-checksummed so only
// the cross-record check can see it: every case must fail decode with
// ErrCorrupt, never panic, and a chain must fail before any joiner is
// built.
func TestDecodeSnapshotBadBlockReferences(t *testing.T) {
	stores, full, delta := sharedFixtureChain(t)
	for _, s := range stores {
		s.Close()
	}
	joiner0 := func(edit func(p []byte)) []byte {
		return rewriteRecord(t, full, recJoiner, 0, func(p []byte) []byte {
			if p[refAt+4] != 2 {
				t.Fatalf("joiner 0's first R block record has flag %d, not a reference", p[refAt+4])
			}
			edit(p)
			return p
		})
	}
	cases := []struct {
		name string
		blob []byte
	}{
		{"reference past the table", joiner0(func(p []byte) {
			binary.LittleEndian.PutUint32(p[refEntryAt:], 1<<20)
		})},
		{"row range outside its entry", joiner0(func(p []byte) {
			binary.LittleEndian.PutUint32(p[refRowAt:], 510)
		})},
		{"empty table entry", rewriteRecord(t, full, recBlocks, 0, func(p []byte) []byte {
			binary.LittleEndian.PutUint32(p[entryFillAt:], 0)
			return p
		})},
		{"table record no joiner names", func() []byte {
			// A second copy of the first blocks record: its entry follows
			// the table's, and no reference names it.
			var blocks []byte
			rewriteRecord(t, full, recBlocks, 0, func(p []byte) []byte { blocks = p; return p })
			out := rewriteRecord(t, full, recTrailer, 0, func(p []byte) []byte {
				binary.LittleEndian.PutUint32(p, binary.LittleEndian.Uint32(p)+1)
				return p
			})
			return append(appendRecord(nil, recBlocks, blocks), out...)
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeOperatorSnapshot(1, tc.blob)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode: error %v does not wrap ErrCorrupt", err)
			}
			_, err = DecodeOperatorSnapshotChain([]Blob{{Gen: 1, Data: tc.blob}, {Gen: 2, Data: delta}})
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("chain decode: error %v does not wrap ErrCorrupt", err)
			}
		})
	}
	t.Run("reference without a table", func(t *testing.T) {
		// Drop the blocks record and fix the trailer count. The blob
		// decodes, having no table to check the joiner records against;
		// a joiner whose record still references the table fails its
		// restore.
		var blob []byte
		n := 0
		for off := 0; off < len(full); {
			typ, payload, next, err := nextRecord(full, off)
			if err != nil {
				t.Fatal(err)
			}
			if typ != recBlocks {
				blob = appendRecord(blob, typ, payload)
				n++
			}
			off = next
		}
		blob = rewriteRecord(t, blob, recTrailer, 0, func(p []byte) []byte {
			binary.LittleEndian.PutUint32(p, uint32(n))
			return p
		})
		snap, err := DecodeOperatorSnapshotChain([]Blob{{Gen: 1, Data: blob}})
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		s := NewStore(join.EquiJoin("eq", nil), Config{})
		defer s.Close()
		if err := snap.Joiners[0].Restore(s); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("restore: error %v does not wrap ErrCorrupt", err)
		}
	})
}
