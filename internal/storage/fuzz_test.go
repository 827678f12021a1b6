package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/join"
)

// FuzzDecodeOperatorSnapshot feeds DecodeOperatorSnapshot arbitrary
// bytes under an arbitrary committed id: a checkpoint blob read back
// from a backend. It must return an error or a snapshot, never panic;
// every joiner state of a snapshot it accepts must in turn restore
// into a store, through the blob's block table, or fail with an error.
// The seeds include the shared fixture's blobs, whose joiner records
// reference a block table.
func FuzzDecodeOperatorSnapshot(f *testing.F) {
	for id, name := range map[uint64]string{1: "parent_full.ckpt", 2: "parent_delta.ckpt"} {
		if data, err := os.ReadFile(filepath.Join("testdata", name)); err == nil {
			f.Add(id, data)
		}
	}
	stores, full, delta := sharedFixtureChain(f)
	for _, s := range stores {
		s.Close()
	}
	f.Add(uint64(1), full)
	f.Add(uint64(2), delta)
	f.Add(uint64(0), []byte{})
	pred := join.EquiJoin("fuzz", nil)
	f.Fuzz(func(t *testing.T, id uint64, data []byte) {
		snap, err := DecodeOperatorSnapshot(id, data)
		if err != nil {
			return
		}
		if snap.ID != id || len(snap.Joiners) != len(snap.Table) {
			t.Fatalf("accepted snapshot %d with %d joiners for %d cells", snap.ID, len(snap.Joiners), len(snap.Table))
		}
		for _, j := range snap.Joiners {
			s := NewStore(pred, Config{})
			_ = j.Restore(s)
			_ = s.Close()
		}
	})
}

// FuzzParseManifest feeds the manifest decoder arbitrary bytes under an
// arbitrary generation: a manifest file read back from a directory. It
// must return an ErrCorrupt error or a chain that re-encodes to the
// same bytes, never panic, and never allocate more than a few times the
// bytes it was given, whatever chain length they claim.
func FuzzParseManifest(f *testing.F) {
	chain := []blobMeta{{name: snapName(1), size: 4096, crc: 7}, {name: snapName(3), size: 12, crc: 9}}
	good := appendManifest(nil, 3, []uint64{1, 3}, chain)
	f.Add(uint64(3), good)
	f.Add(uint64(1), appendManifest(nil, 1, []uint64{1}, chain[:1]))
	f.Add(uint64(4), good)
	// A body claiming 2^20 entries with room for two, re-checksummed.
	hostile := append([]byte(nil), good[:len(good)-4]...)
	binary.LittleEndian.PutUint32(hostile[len(manifestMagic)+8:], 1<<20)
	f.Add(uint64(3), binary.LittleEndian.AppendUint32(hostile, crc32.ChecksumIEEE(hostile)))
	f.Fuzz(func(t *testing.T, gen uint64, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		gens, metas, err := decodeManifest(gen, data)
		runtime.ReadMemStats(&after)
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(data)+64<<10); alloc > limit {
			t.Fatalf("decode of %d bytes allocated %d, limit %d", len(data), alloc, limit)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		if len(gens) != len(metas) || gens[len(gens)-1] != gen {
			t.Fatalf("accepted chain %v with %d blobs for generation %d", gens, len(metas), gen)
		}
		if enc := appendManifest(nil, gen, gens, metas); !bytes.Equal(enc, data) {
			t.Fatalf("accepted manifest of %d bytes re-encodes to %d other bytes", len(data), len(enc))
		}
	})
}
