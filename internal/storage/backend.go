package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"repro/internal/faultpoint"
)

// Backend persists operator checkpoints as a sequence of generations.
// A generation is either a full snapshot (no deps) or a delta whose
// payload only makes sense stacked on the listed dependency chain.
// Write must commit atomically: after a torn Write (crash mid-call),
// the previously committed generations stay loadable and the torn one
// is invisible. Generation numbers are assigned by the operator and
// strictly increase within one operator lifetime.
type Backend interface {
	// Write durably commits one checkpoint blob under gen. deps lists
	// the generations the blob depends on, base first; the backend must
	// keep those blobs alive as long as gen is retained. deps is empty
	// for a full snapshot. The operator encodes a fresh blob for every
	// checkpoint and never reads or writes data again once Write is
	// called, so a backend may retain data, or keep reading it from an
	// abandoned attempt after Write returned (as RetryBackend's timed-out
	// attempts do), without copying it.
	Write(gen uint64, data []byte, deps []uint64) error
	// Generations returns every committed generation, newest first.
	// It lists what the backend believes exists; validation happens in
	// Load, so a corrupted generation still appears here.
	Generations() ([]uint64, error)
	// Load returns the full blob chain for gen, base first, ending with
	// gen's own blob. Validation failures (missing blob, bad checksum,
	// torn manifest) wrap ErrCorrupt so restore can fall back to an
	// older generation.
	Load(gen uint64) ([]Blob, error)
}

// Blob is one link of a checkpoint chain as returned by Backend.Load.
type Blob struct {
	Gen  uint64
	Data []byte
}

// KeepSetter is implemented by backends with a retention knob: keep
// the newest k committed generations (plus whatever blobs their chains
// reference) and garbage-collect the rest.
type KeepSetter interface{ SetKeep(k int) }

// DefaultKeep is how many committed generations a backend retains when
// nobody calls SetKeep. Two means one corrupt newest generation still
// leaves an intact fallback.
const DefaultKeep = 2

// ErrCorrupt tags every validation failure of a committed checkpoint —
// truncation, checksum mismatch, id mismatch — so callers can
// errors.Is one sentinel regardless of which layer detected it.
var ErrCorrupt = errors.New("checkpoint corrupt")

// MemBackend keeps the newest K checkpoint generations in memory: the
// testing and single-process default. Blobs are copied on both sides,
// so the caller may reuse its buffer.
type MemBackend struct {
	mu    sync.Mutex
	keep  int
	gens  []uint64 // committed order, oldest first
	blobs map[uint64][]byte
	deps  map[uint64][]uint64
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{
		keep:  DefaultKeep,
		blobs: make(map[uint64][]byte),
		deps:  make(map[uint64][]uint64),
	}
}

// SetKeep sets the retention depth. k < 1 is clamped to 1.
func (b *MemBackend) SetKeep(k int) {
	if k < 1 {
		k = 1
	}
	b.mu.Lock()
	b.keep = k
	b.gc()
	b.mu.Unlock()
}

// Write commits the blob under gen.
func (b *MemBackend) Write(gen uint64, data []byte, deps []uint64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, d := range deps {
		if _, ok := b.blobs[d]; !ok {
			return fmt.Errorf("storage: delta checkpoint %d depends on unknown generation %d", gen, d)
		}
	}
	b.blobs[gen] = append([]byte(nil), data...)
	b.deps[gen] = append([]uint64(nil), deps...)
	for i, g := range b.gens {
		if g == gen {
			b.gens = append(b.gens[:i], b.gens[i+1:]...)
			break
		}
	}
	b.gens = append(b.gens, gen)
	b.gc()
	return nil
}

// gc drops generations beyond keep, then blobs no surviving chain
// references. Caller holds b.mu.
func (b *MemBackend) gc() {
	for len(b.gens) > b.keep {
		b.gens = b.gens[1:]
	}
	live := make(map[uint64]bool, len(b.gens)*2)
	for _, g := range b.gens {
		live[g] = true
		for _, d := range b.deps[g] {
			live[d] = true
		}
	}
	for g := range b.blobs {
		if !live[g] {
			delete(b.blobs, g)
			delete(b.deps, g)
		}
	}
}

// Generations returns committed generations, newest first.
func (b *MemBackend) Generations() ([]uint64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]uint64, 0, len(b.gens))
	for i := len(b.gens) - 1; i >= 0; i-- {
		out = append(out, b.gens[i])
	}
	return out, nil
}

// Load returns gen's chain, base first.
func (b *MemBackend) Load(gen uint64) ([]Blob, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	committed := false
	for _, g := range b.gens {
		if g == gen {
			committed = true
			break
		}
	}
	if !committed {
		return nil, fmt.Errorf("storage: generation %d not committed: %w", gen, ErrCorrupt)
	}
	chain := append(append([]uint64(nil), b.deps[gen]...), gen)
	out := make([]Blob, 0, len(chain))
	for _, g := range chain {
		data, ok := b.blobs[g]
		if !ok {
			return nil, fmt.Errorf("storage: generation %d chain misses blob %d: %w", gen, g, ErrCorrupt)
		}
		out = append(out, Blob{Gen: g, Data: append([]byte(nil), data...)})
	}
	return out, nil
}

// Corrupt flips one byte in the stored blob for gen, returning false
// when the generation does not exist. Test hook: record-level CRCs in
// the snapshot encoding catch the flip at decode time, which is what
// drives fallback restore for the in-memory backend.
func (b *MemBackend) Corrupt(gen uint64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	data, ok := b.blobs[gen]
	if !ok || len(data) == 0 {
		return false
	}
	data[len(data)/2] ^= 0xff
	return true
}

// FileBackend persists checkpoints in a directory:
//
//	ckpt-<gen>.snap    one checkpoint blob per generation
//	MANIFEST-<gen>     magic, gen, chain entry list (gen, blob name,
//	                   size, CRC32 per link, base first), then the
//	                   CRC32 of the manifest body itself
//
// Commit order makes torn writes unmistakable for valid checkpoints:
// the blob is written to a temp file and renamed into place first, the
// manifest likewise second, and the directory is fsynced after each
// rename so a metadata-journal crash cannot lose a committed
// checkpoint. A crash before the manifest rename leaves the previous
// generations pointing at their previous blobs; a crash mid-rename is
// resolved by the filesystem's rename atomicity. Old generations are
// garbage-collected strictly after the new manifest commits — a crash
// between commit and GC leaves extra files, never a manifest pointing
// at deleted blobs. Load validates the manifest checksum, then each
// chain blob's size and checksum, before returning a byte of it.
type FileBackend struct {
	dir  string
	mu   sync.Mutex
	keep int
	// meta caches size+CRC of blobs written or loaded by this process,
	// so delta manifests can list their full chain without re-reading
	// dep blobs. The first checkpoint after restore is always full, so
	// an empty cache never blocks a commit.
	meta map[uint64]blobMeta
}

type blobMeta struct {
	name string
	size uint64
	crc  uint32
}

// NewFileBackend returns a backend rooted at dir, creating it if
// needed. Temp files left behind by a crash mid-writeAtomic are swept
// here: they were never committed (the rename is the commit point), so
// removing them can only reclaim space, never lose a generation.
func NewFileBackend(dir string) (*FileBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create backend dir: %w", err)
	}
	if leftovers, err := filepath.Glob(filepath.Join(dir, "*.tmp-*")); err == nil {
		for _, p := range leftovers {
			_ = os.Remove(p)
		}
	}
	return &FileBackend{dir: dir, keep: DefaultKeep, meta: make(map[uint64]blobMeta)}, nil
}

// SetKeep sets the retention depth. k < 1 is clamped to 1.
func (b *FileBackend) SetKeep(k int) {
	if k < 1 {
		k = 1
	}
	b.mu.Lock()
	b.keep = k
	b.mu.Unlock()
}

const manifestMagic = "SQLMANI2"

// manifestPrefix is the commit point: the file whose atomic rename
// publishes a generation.
const manifestPrefix = "MANIFEST-"

func manifestName(gen uint64) string {
	return fmt.Sprintf("%s%016x", manifestPrefix, gen)
}

func snapName(gen uint64) string {
	return fmt.Sprintf("ckpt-%016x.snap", gen)
}

// writeAtomic writes data to a temp file in dir, renames it to name,
// and fsyncs dir so the rename itself is durable: the standard
// write-rename-syncdir commit.
func writeAtomic(dir, name string, data []byte) error {
	f, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	serr := f.Sync()
	cerr := f.Close()
	if werr == nil {
		werr = serr
	}
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = os.Remove(tmp)
		return werr
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs the directory so renames inside it survive a
// metadata-journal crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// Write commits the blob under gen with the given dependency chain.
// The armed corruption faultpoints hook in here: TruncatedSegment
// drops the blob's tail after the checksums were computed, FlippedCRC
// flips one payload byte — both then commit the manifest normally, so
// Load must catch them. MidSnapshot crashes between the blob rename
// and the manifest rename (the torn-commit window); MidDeltaCommit is
// the same window but only for delta generations; GCBeforeFallback
// crashes right after old generations were garbage-collected.
func (b *FileBackend) Write(gen uint64, data []byte, deps []uint64) error {
	b.mu.Lock()
	defer b.mu.Unlock()

	chain := make([]blobMeta, 0, len(deps)+1)
	chainGens := make([]uint64, 0, len(deps)+1)
	for _, d := range deps {
		m, ok := b.meta[d]
		if !ok {
			return fmt.Errorf("storage: delta checkpoint %d depends on unknown generation %d", gen, d)
		}
		chain = append(chain, m)
		chainGens = append(chainGens, d)
	}
	self := blobMeta{name: snapName(gen), size: uint64(len(data)), crc: crc32.ChecksumIEEE(data)}
	chain = append(chain, self)
	chainGens = append(chainGens, gen)

	blob := data
	if faultpoint.Consume(faultpoint.TruncatedSegment) {
		blob = blob[:len(blob)/2]
	} else if faultpoint.Consume(faultpoint.FlippedCRC) && len(blob) > 0 {
		blob = append([]byte(nil), blob...)
		blob[len(blob)/2] ^= 0xff
	}

	if err := writeAtomic(b.dir, self.name, blob); err != nil {
		return fmt.Errorf("storage: write checkpoint blob: %w", err)
	}

	faultpoint.Crash(faultpoint.MidSnapshot)
	if len(deps) > 0 {
		faultpoint.Crash(faultpoint.MidDeltaCommit)
	}

	if err := writeAtomic(b.dir, manifestName(gen), appendManifest(nil, gen, chainGens, chain)); err != nil {
		return fmt.Errorf("storage: write checkpoint manifest: %w", err)
	}
	b.meta[gen] = self

	// Old generations are garbage only now that the new manifest is
	// committed and durable; a crash anywhere above leaves every
	// previously committed generation loadable.
	b.gc()

	faultpoint.Crash(faultpoint.GCBeforeFallback)
	return nil
}

// gc removes manifests beyond the keep horizon, then blobs that no
// surviving manifest's chain references. A dropped generation a kept
// chain still builds on loses only its manifest (it stops being a
// restore point of its own): its blob and its cached metadata stay, so
// the next delta Write can still list it as a dependency. Caller holds
// b.mu. GC is best-effort: an unreadable surviving manifest aborts blob
// deletion (never the other way around), so corruption can strand files
// but never invalidate a committed generation.
func (b *FileBackend) gc() {
	gens := b.listGens()
	if len(gens) <= b.keep {
		return
	}
	drop := gens[b.keep:] // newest-first, so the tail is oldest
	keep := gens[:b.keep]

	for _, d := range drop {
		_ = os.Remove(filepath.Join(b.dir, manifestName(d)))
	}
	// Collect every generation and blob name a surviving chain
	// references before forgetting or deleting any of them.
	liveGens := make(map[uint64]bool)
	liveBlobs := make(map[string]bool)
	for _, g := range keep {
		chain, metas, err := b.parseManifest(g)
		if err != nil {
			return // cannot prove a blob is dead: leave them all
		}
		for i, m := range metas {
			liveGens[chain[i]] = true
			liveBlobs[m.name] = true
		}
	}
	for g := range b.meta {
		if !liveGens[g] {
			delete(b.meta, g)
		}
	}
	blobs, err := filepath.Glob(filepath.Join(b.dir, "ckpt-*.snap"))
	if err != nil {
		return
	}
	for _, p := range blobs {
		if !liveBlobs[filepath.Base(p)] {
			_ = os.Remove(p)
		}
	}
}

// parseGenName extracts the generation from a manifest file name. The
// suffix must be exactly the 16 hex digits manifestName writes —
// anything longer (a MANIFEST-<gen>.tmp-XXXX leftover from a crash
// mid-writeAtomic) is not a committed generation and must not occupy a
// keep slot or surface through Generations.
func parseGenName(base string) (uint64, bool) {
	s := base[len(manifestPrefix):]
	if len(s) != 16 {
		return 0, false
	}
	g, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, false
	}
	return g, true
}

// listGens returns committed generations (manifest files present),
// newest first, skipping files whose names do not parse. Caller holds
// b.mu.
func (b *FileBackend) listGens() []uint64 {
	paths, err := filepath.Glob(filepath.Join(b.dir, manifestPrefix+"*"))
	if err != nil {
		return nil
	}
	gens := make([]uint64, 0, len(paths))
	for _, p := range paths {
		g, ok := parseGenName(filepath.Base(p))
		if !ok {
			continue
		}
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	return gens
}

// Generations returns committed generations, newest first.
func (b *FileBackend) Generations() ([]uint64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.listGens(), nil
}

// parseManifest reads gen's manifest and decodes it (decodeManifest).
func (b *FileBackend) parseManifest(gen uint64) ([]uint64, []blobMeta, error) {
	m, err := os.ReadFile(filepath.Join(b.dir, manifestName(gen)))
	if err != nil {
		// A missing manifest is a broken generation (corrupt, fall back);
		// any other read failure is transient I/O trouble the caller
		// should retry rather than silently fall past to stale state.
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil, fmt.Errorf("storage: read manifest for generation %d: %w (%w)", gen, err, ErrCorrupt)
		}
		return nil, nil, fmt.Errorf("storage: read manifest for generation %d: %w", gen, err)
	}
	return decodeManifest(gen, m)
}

// manifestEntryMin is the smallest chain entry: generation, name
// length, a one-byte name, blob size and blob CRC.
const manifestEntryMin = 8 + 4 + 1 + 8 + 4

// appendManifest encodes gen's manifest — the chain of generations
// gens, base first and ending at gen, with their blobs — onto m.
func appendManifest(m []byte, gen uint64, gens []uint64, chain []blobMeta) []byte {
	start := len(m)
	m = append(m, manifestMagic...)
	m = binary.LittleEndian.AppendUint64(m, gen)
	m = binary.LittleEndian.AppendUint32(m, uint32(len(chain)))
	for i, e := range chain {
		m = binary.LittleEndian.AppendUint64(m, gens[i])
		m = binary.LittleEndian.AppendUint32(m, uint32(len(e.name)))
		m = append(m, e.name...)
		m = binary.LittleEndian.AppendUint64(m, e.size)
		m = binary.LittleEndian.AppendUint32(m, e.crc)
	}
	return binary.LittleEndian.AppendUint32(m, crc32.ChecksumIEEE(m[start:]))
}

// decodeManifest validates and decodes gen's manifest bytes m into
// chain generations (base first) and their blob metadata. Any
// structural problem is ErrCorrupt, and nothing is allocated for more
// entries than m can hold.
func decodeManifest(gen uint64, m []byte) ([]uint64, []blobMeta, error) {
	// magic + gen + count + >=1 entry + manifestCRC
	minLen := len(manifestMagic) + 8 + 4 + manifestEntryMin + 4
	if len(m) < minLen {
		return nil, nil, fmt.Errorf("storage: manifest for generation %d truncated (%d bytes): %w", gen, len(m), ErrCorrupt)
	}
	if string(m[:len(manifestMagic)]) != manifestMagic {
		return nil, nil, fmt.Errorf("storage: manifest for generation %d has bad magic: %w", gen, ErrCorrupt)
	}
	body, tail := m[:len(m)-4], m[len(m)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, nil, fmt.Errorf("storage: manifest for generation %d checksum mismatch: %w", gen, ErrCorrupt)
	}
	off := len(manifestMagic)
	own := binary.LittleEndian.Uint64(body[off:])
	off += 8
	if own != gen {
		return nil, nil, fmt.Errorf("storage: manifest for generation %d claims generation %d: %w", gen, own, ErrCorrupt)
	}
	count := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	if count <= 0 || count > (len(body)-off)/manifestEntryMin {
		return nil, nil, fmt.Errorf("storage: manifest for generation %d has implausible chain length %d: %w", gen, count, ErrCorrupt)
	}
	gens := make([]uint64, 0, count)
	metas := make([]blobMeta, 0, count)
	for i := 0; i < count; i++ {
		if off+12 > len(body) {
			return nil, nil, fmt.Errorf("storage: manifest for generation %d chain entry %d truncated: %w", gen, i, ErrCorrupt)
		}
		g := binary.LittleEndian.Uint64(body[off:])
		off += 8
		nameLen := int(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		if nameLen <= 0 || off+nameLen+12 > len(body) {
			return nil, nil, fmt.Errorf("storage: manifest for generation %d chain entry %d has inconsistent layout: %w", gen, i, ErrCorrupt)
		}
		name := string(body[off : off+nameLen])
		off += nameLen
		size := binary.LittleEndian.Uint64(body[off:])
		off += 8
		crc := binary.LittleEndian.Uint32(body[off:])
		off += 4
		if filepath.Base(name) != name {
			return nil, nil, fmt.Errorf("storage: manifest for generation %d names a non-local blob %q: %w", gen, name, ErrCorrupt)
		}
		gens = append(gens, g)
		metas = append(metas, blobMeta{name: name, size: size, crc: crc})
	}
	if off != len(body) {
		return nil, nil, fmt.Errorf("storage: manifest for generation %d has %d trailing bytes: %w", gen, len(body)-off, ErrCorrupt)
	}
	if gens[len(gens)-1] != gen {
		return nil, nil, fmt.Errorf("storage: manifest for generation %d chain does not end at itself: %w", gen, ErrCorrupt)
	}
	return gens, metas, nil
}

// Load reads and validates gen's full chain, base first.
func (b *FileBackend) Load(gen uint64) ([]Blob, error) {
	b.mu.Lock()
	defer b.mu.Unlock()

	gens, metas, err := b.parseManifest(gen)
	if err != nil {
		return nil, err
	}
	out := make([]Blob, 0, len(metas))
	for i, e := range metas {
		data, err := os.ReadFile(filepath.Join(b.dir, e.name))
		if err != nil {
			// Missing blob = broken chain (corrupt); other read failures
			// are transient and retryable, not grounds for fallback.
			if errors.Is(err, fs.ErrNotExist) {
				return nil, fmt.Errorf("storage: read checkpoint blob: %w (%w)", err, ErrCorrupt)
			}
			return nil, fmt.Errorf("storage: read checkpoint blob: %w", err)
		}
		if uint64(len(data)) != e.size {
			return nil, fmt.Errorf("storage: checkpoint blob %s is %d bytes, manifest says %d: %w",
				e.name, len(data), e.size, ErrCorrupt)
		}
		if crc32.ChecksumIEEE(data) != e.crc {
			return nil, fmt.Errorf("storage: checkpoint blob %s checksum mismatch: %w", e.name, ErrCorrupt)
		}
		b.meta[gens[i]] = e
		out = append(out, Blob{Gen: gens[i], Data: data})
	}
	return out, nil
}
