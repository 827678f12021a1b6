package storage

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/join"
)

// FuzzDecodeOperatorSnapshot feeds DecodeOperatorSnapshot arbitrary
// bytes under an arbitrary committed id: a checkpoint blob read back
// from a backend. It must return an error or a snapshot, never panic;
// every joiner state of a snapshot it accepts must in turn restore
// into a store or fail with an error.
func FuzzDecodeOperatorSnapshot(f *testing.F) {
	for id, name := range map[uint64]string{1: "parent_full.ckpt", 2: "parent_delta.ckpt"} {
		if data, err := os.ReadFile(filepath.Join("testdata", name)); err == nil {
			f.Add(id, data)
		}
	}
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
			_ = s.RestoreSnapshot(j.State)
			_ = s.Close()
		}
	})
}
