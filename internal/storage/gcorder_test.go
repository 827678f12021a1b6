package storage

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
)

// TestFileBackendGCNeverStrandsRetainedChains is the GC-ordering
// contract: old blobs are deleted only after the new manifest is
// committed, and a blob stays live while any retained manifest's chain
// references it. After every Write — full or delta, at several keep
// depths — every retained generation must load its full chain
// byte-exactly.
func TestFileBackendGCNeverStrandsRetainedChains(t *testing.T) {
	for _, keep := range []int{1, 2, 3} {
		t.Run(map[int]string{1: "keep-1", 2: "keep-2", 3: "keep-3"}[keep], func(t *testing.T) {
			dir := t.TempDir()
			b, err := NewFileBackend(dir)
			if err != nil {
				t.Fatal(err)
			}
			b.SetKeep(keep)

			payload := func(gen uint64) []byte {
				return bytes.Repeat([]byte{byte(gen)}, 64+int(gen))
			}
			var chain []uint64
			for gen := uint64(1); gen <= 12; gen++ {
				// A fresh full base every 4th generation, deltas between.
				var deps []uint64
				if gen%4 != 1 {
					deps = append([]uint64(nil), chain...)
				} else {
					chain = chain[:0]
				}
				if err := b.Write(gen, payload(gen), deps); err != nil {
					t.Fatalf("write gen %d: %v", gen, err)
				}
				chain = append(chain, gen)

				gens, err := b.Generations()
				if err != nil {
					t.Fatalf("generations after gen %d: %v", gen, err)
				}
				if want := min(int(gen), keep); len(gens) != want {
					t.Fatalf("after gen %d: %d retained generations, want %d", gen, len(gens), want)
				}
				for _, g := range gens {
					blobs, err := b.Load(g)
					if err != nil {
						t.Fatalf("after writing gen %d, retained gen %d unloadable: %v", gen, g, err)
					}
					head := blobs[len(blobs)-1]
					if head.Gen != g || !bytes.Equal(head.Data, payload(g)) {
						t.Fatalf("gen %d head blob mismatch", g)
					}
					for _, bl := range blobs {
						if !bytes.Equal(bl.Data, payload(bl.Gen)) {
							t.Fatalf("gen %d chain blob %d corrupted by GC", g, bl.Gen)
						}
					}
				}
			}
			// No unreferenced blobs pile up either: every blob on disk is
			// in some retained chain.
			live := make(map[uint64]bool)
			gens, _ := b.Generations()
			for _, g := range gens {
				blobs, _ := b.Load(g)
				for _, bl := range blobs {
					live[bl.Gen] = true
				}
			}
			onDisk, err := filepath.Glob(filepath.Join(dir, "ckpt-*.snap"))
			if err != nil {
				t.Fatal(err)
			}
			if len(onDisk) != len(live) {
				t.Fatalf("%d blobs on disk, %d referenced by retained chains: %v", len(onDisk), len(live), onDisk)
			}
		})
	}
}

// TestBackendsDefaultConfigNineCheckpoints replays what an operator
// with default settings asks of a backend — keep 2 (nobody calls
// SetKeep), one full snapshot, then deltas each depending on everything
// since that base — and checks what the GC-ordering test above never
// did: that every *next* Write is accepted, and that the newest
// generation loads its whole chain. Two histories: a chain folded back
// to a full snapshot at generation 9, and a 24-link chain on one base,
// which is what an append-only stream gives under the dead-bytes
// compaction rule (the base stays needed long after it left the keep
// window). Nothing is loaded until the chain is at full length, because
// Load refreshes FileBackend's metadata cache and an operator never
// loads between commits. A GC that forgets a dropped generation's
// metadata while a kept chain still builds on it fails here at
// generation 4 ("depends on unknown generation 1"). On disk, the file
// backend must hold exactly the blobs the retained generations
// reference.
func TestBackendsDefaultConfigNineCheckpoints(t *testing.T) {
	cases := []struct {
		suffix    string // appended to the backend's subtest name
		gens      int
		fold      int // chain length at which the next write is full; 0: never
		loadsFrom int
	}{
		{"", 9, 8, 8},
		{"-24-links", 24, 0, 24},
	}
	for _, tc := range cases {
		dir := t.TempDir()
		file, err := NewFileBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		for name, b := range map[string]Backend{"mem": NewMemBackend(), "file": file} {
			t.Run(name+tc.suffix, func(t *testing.T) {
				payload := func(gen uint64) []byte {
					return bytes.Repeat([]byte{byte(gen)}, 64+int(gen))
				}
				var chain []uint64
				for gen := uint64(1); gen <= uint64(tc.gens); gen++ {
					if tc.fold > 0 && len(chain) == tc.fold {
						chain = chain[:0] // compaction: this generation is full again
					}
					if err := b.Write(gen, payload(gen), chain); err != nil {
						t.Fatalf("write gen %d (deps %v): %v", gen, chain, err)
					}
					chain = append(chain, gen)

					gens, err := b.Generations()
					if err != nil {
						t.Fatalf("generations after gen %d: %v", gen, err)
					}
					if want := min(int(gen), DefaultKeep); len(gens) != want || gens[0] != gen {
						t.Fatalf("after gen %d: retained %v, want the newest %d", gen, gens, want)
					}
					if int(gen) < tc.loadsFrom {
						continue
					}
					blobs, err := b.Load(gen)
					if err != nil {
						t.Fatalf("load newest gen %d: %v", gen, err)
					}
					if len(blobs) != len(chain) {
						t.Fatalf("gen %d loaded a chain of %d blobs, want %v", gen, len(blobs), chain)
					}
					for i, bl := range blobs {
						if bl.Gen != chain[i] || !bytes.Equal(bl.Data, payload(chain[i])) {
							t.Fatalf("gen %d chain link %d is generation %d, want %d intact", gen, i, bl.Gen, chain[i])
						}
					}
				}
				if name != "file" {
					return
				}
				live := make(map[string]bool)
				gens, _ := b.Generations()
				for _, g := range gens {
					blobs, err := b.Load(g)
					if err != nil {
						t.Fatalf("load retained gen %d: %v", g, err)
					}
					for _, bl := range blobs {
						live[fmt.Sprintf("ckpt-%016x.snap", bl.Gen)] = true
					}
				}
				onDisk, err := filepath.Glob(filepath.Join(dir, "ckpt-*.snap"))
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range onDisk {
					if !live[filepath.Base(p)] {
						t.Fatalf("blob %s on disk, referenced by no retained generation", filepath.Base(p))
					}
				}
				if len(onDisk) != len(live) {
					t.Fatalf("%d blobs on disk, %d referenced by retained chains", len(onDisk), len(live))
				}
			})
		}
	}
}
