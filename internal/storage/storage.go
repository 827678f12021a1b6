// Package storage provides the per-joiner tuple store with a bounded
// in-memory tier and a disk-spill tier, substituting for the BerkeleyDB
// backend the paper integrates ("joiners perform the local join in
// memory, but if it runs out of memory it begins spilling to disk",
// §5). The store keeps full tuples and join indexes in memory up to a
// configurable byte budget; beyond it, tuples are appended to per-side
// disk segments with only a small in-memory directory (key, routing
// value, offset), so every probe that hits spilled state pays a random
// disk read — reproducing the paper's overflow cliff.
package storage

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/join"
	"repro/internal/matrix"
)

// Config controls a Store.
type Config struct {
	// CapBytes is the in-memory budget; 0 means unlimited (no spill).
	CapBytes int64
	// Dir is where spill segments are created. Empty means the OS temp
	// directory.
	Dir string
}

// Metrics counts spill-tier activity. All fields are updated atomically
// so experiment collectors may read them while the owning joiner runs.
// Memory-tier volumes are not counted here — they are the store's
// totals (Len, Bytes) minus the spilled ones, and keeping them out of
// Metrics spares two atomic writes on every hot-path insert.
type Metrics struct {
	SpilledTuples atomic.Int64
	SpilledBytes  atomic.Int64
	DiskReads     atomic.Int64
	DiskWrites    atomic.Int64
}

// Store is a two-tier tuple store for one joiner: a symmetric in-memory
// join plus two disk segments. It is owned by a single goroutine, like
// all joiner state.
type Store struct {
	pred    join.Predicate
	cfg     Config
	mem     *join.Local
	segs    [2]*segment // lazily created, indexed by matrix.Side
	Metrics Metrics
}

// NewStore returns an empty store for the predicate.
func NewStore(p join.Predicate, cfg Config) *Store {
	return &Store{pred: p, cfg: cfg, mem: join.NewLocal(p)}
}

// AddBatchCollect probes the opposite relation (memory and spilled
// tiers) with a run of same-side tuples (all ts share ts[0].Rel) and
// then stores the run: the non-blocking probe-then-insert step, with
// spill-tier dispatch and budget checks amortized per run, and every
// match appended to *out — the caller owns the pair buffer and flushes
// it (accounting, user sink) once per run. Because tuples of one
// relation never join each other, probing the whole run before storing
// it collects exactly the pairs per-tuple probe-then-insert steps
// would. The unbudgeted, unspilled store (the
// common case) takes the memory tier's fused probe-then-insert walk,
// which hashes each key exactly once for both halves of the step.
func (s *Store) AddBatchCollect(ts []join.Tuple, out *[]join.Pair) {
	s.AddWindowCollect(ts, join.Window{}, out)
}

// AddWindowCollect is AddBatchCollect for a run whose columns were
// written into the shared window w (join.Local.AddWindowCollect): the
// unbudgeted, unspilled store keeps a view of the window instead of a
// copy. A budgeted or spilled store copies, as AddBatchCollect does.
func (s *Store) AddWindowCollect(ts []join.Tuple, w join.Window, out *[]join.Pair) {
	if len(ts) == 0 {
		return
	}
	if s.unbounded() {
		s.mem.AddWindowCollect(ts, w, out)
		return
	}
	s.ProbeBatchCollect(ts, out)
	s.InsertBatch(ts)
}

// unbounded reports whether the store is the plain memory tier: no
// budget and nothing spilled.
func (s *Store) unbounded() bool {
	return s.cfg.CapBytes == 0 && s.segs[0] == nil && s.segs[1] == nil
}

// ProbeBatchCollect joins a run of same-side tuples against all stored
// tuples of the opposite relation, appending matches to *out. Both
// tiers collect without a per-pair callback; the spill tier (rare by
// construction) gathers matching directory skeletons for the whole run
// first and then reads and tests the spilled records.
func (s *Store) ProbeBatchCollect(ts []join.Tuple, out *[]join.Pair) {
	if len(ts) == 0 {
		return
	}
	s.mem.ProbeBatchCollect(ts, out)
	if seg := s.segs[ts[0].Rel.Other()]; seg != nil {
		seg.probeBatch(ts, s.pred, out, &s.Metrics)
	}
}

// Reserve passes an expected per-side stored-tuple forecast through to
// the memory tier (see join.Index.Reserve). Budgeted stores ignore the
// hint: their memory tier is bounded by CapBytes, not by the stream.
func (s *Store) Reserve(r, sCount int) {
	if s.cfg.CapBytes != 0 {
		return
	}
	s.mem.Reserve(r, sCount)
}

// InsertWindow stores a run of same-side tuples written into the
// shared window w, as a view of it when the store is the plain memory
// tier, else as InsertBatch does.
func (s *Store) InsertWindow(ts []join.Tuple, w join.Window) {
	if s.unbounded() {
		s.mem.InsertWindow(ts, w)
		return
	}
	s.InsertBatch(ts)
}

// InsertBatch stores a run of same-side tuples. Unbudgeted stores (the
// common case) take one batched memory-tier insert; budgeted stores
// fall back to the per-tuple spill dispatch.
func (s *Store) InsertBatch(ts []join.Tuple) {
	if s.cfg.CapBytes == 0 {
		s.mem.InsertBatch(ts)
		return
	}
	for i := range ts {
		s.Insert(ts[i])
	}
}

// Insert stores t in the memory tier if it fits the budget, else in the
// disk tier.
func (s *Store) Insert(t join.Tuple) {
	if s.cfg.CapBytes == 0 || s.mem.Bytes()+t.Bytes() <= s.cfg.CapBytes {
		s.mem.Insert(t)
		return
	}
	seg := s.segs[t.Rel]
	if seg == nil {
		var err error
		seg, err = newSegment(s.cfg.Dir, s.pred)
		if err != nil {
			// Spill tier unavailable: degrade to memory rather than
			// lose data; the budget is advisory, as in any cache.
			s.mem.Insert(t)
			return
		}
		s.segs[t.Rel] = seg
	}
	seg.append(t, &s.Metrics)
}

// Footprint returns the resident bytes of the memory tier plus the
// spill tier's in-memory skeleton directories, split as
// join.Index.Footprint splits them.
func (s *Store) Footprint() (arenaBytes, directoryBytes int64) {
	arenaBytes, directoryBytes = s.mem.Footprint()
	for _, seg := range s.segs {
		if seg != nil {
			a, d := seg.dir.Footprint()
			arenaBytes += a
			directoryBytes += d
		}
	}
	return arenaBytes, directoryBytes
}

// Views lists the memory tier's arena entries of one side
// (join.Local.Views).
func (s *Store) Views(side matrix.Side) []join.BlockView { return s.mem.Views(side) }

// Segments describes how the memory tier indexes one side
// (join.Local.Segments).
func (s *Store) Segments(side matrix.Side) join.SegmentView { return s.mem.Segments(side) }

// Len returns the stored tuple count of one side across both tiers.
func (s *Store) Len(side matrix.Side) int {
	n := s.mem.Len(side)
	if seg := s.segs[side]; seg != nil {
		n += seg.len()
	}
	return n
}

// TotalLen returns the total stored tuple count.
func (s *Store) TotalLen() int { return s.Len(matrix.SideR) + s.Len(matrix.SideS) }

// Bytes returns the accounted stored volume across both tiers.
func (s *Store) Bytes() int64 {
	b := s.mem.Bytes()
	for _, seg := range s.segs {
		if seg != nil {
			b += seg.bytes
		}
	}
	return b
}

// Spilled reports whether any tuple has overflowed to disk.
func (s *Store) Spilled() bool { return s.Metrics.SpilledTuples.Load() > 0 }

// Scan visits every stored tuple of one side, memory tier first, then
// the disk segment in append order.
func (s *Store) Scan(side matrix.Side, fn func(join.Tuple) bool) {
	stopped := false
	s.mem.Scan(side, func(t join.Tuple) bool {
		if !fn(t) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return
	}
	if seg := s.segs[side]; seg != nil {
		seg.scan(fn, &s.Metrics)
	}
}

// Retain keeps only the tuples of the given side whose u is in keep,
// across both tiers, returning the number discarded. The memory tier
// reads its u columns (join.Index.Retain); the disk segment is
// rewritten through its own scan.
func (s *Store) Retain(side matrix.Side, keep matrix.Top) int {
	removed := s.mem.Retain(side, keep)
	if seg := s.segs[side]; seg != nil {
		removed += seg.retain(func(t join.Tuple) bool { return keep.Has(t.U) }, s.cfg, s.pred, &s.Metrics)
	}
	return removed
}

// MergeFrom bulk-merges every tuple stored in src into s without
// probing, consuming src's in-memory state (src must only be Closed
// afterward). When s is unbudgeted and src never spilled — the normal
// migration-finalization case — hash-indexed state merges by stealing
// whole arena chunks instead of re-inserting tuple by tuple. Budgeted
// or spilled stores fall back to the per-tuple insert path so the
// memory cap keeps being enforced.
func (s *Store) MergeFrom(src *Store) {
	if s.cfg.CapBytes == 0 && !src.Spilled() {
		s.mem.MergeFrom(src.mem)
		return
	}
	for _, side := range [2]matrix.Side{matrix.SideR, matrix.SideS} {
		src.Scan(side, func(t join.Tuple) bool {
			s.Insert(t)
			return true
		})
	}
}

// Close releases disk resources. The store must not be used afterward.
func (s *Store) Close() error {
	var first error
	for i, seg := range s.segs {
		if seg != nil {
			if err := seg.close(); err != nil && first == nil {
				first = err
			}
			s.segs[i] = nil
		}
	}
	return first
}

// segment is one side's disk tier: an append-only record file plus an
// in-memory directory of skeleton tuples (Key, U, offset) so probes can
// locate candidates without scanning the file; reading the matched
// record still costs a disk read, like a BerkeleyDB leaf fetch.
type segment struct {
	f     *os.File
	path  string
	dir   join.Index // skeleton tuples; Aux carries the file offset
	off   int64
	n     int
	bytes int64
	// rewrites counts retain rewrites. Between rewrites the record file
	// is append-only, so a (rewrites, n) pair names a stable record
	// prefix — the spill tier's incremental-checkpoint watermark.
	rewrites uint64
	// scratch is the reusable record-encoding buffer: append encodes
	// every spilled tuple into it instead of allocating a fresh buffer
	// per record, so sustained spilling costs disk writes, not garbage.
	scratch []byte
	// hits is the reusable batch-probe gather buffer of (probe index,
	// file offset) candidates.
	hits []segHit
}

// segHit is one gathered spill-probe candidate.
type segHit struct {
	probe int32
	off   int64
}

func newSegment(dir string, p join.Predicate) (*segment, error) {
	if dir == "" {
		dir = os.TempDir()
	}
	f, err := os.CreateTemp(dir, "squall-spill-*.seg")
	if err != nil {
		return nil, fmt.Errorf("storage: create spill segment: %w", err)
	}
	return &segment{f: f, path: f.Name(), dir: join.NewIndex(p)}, nil
}

const recordHeader = 8 + 8 + 8 + 8 + 4 + 1 + 1 + 4 // key aux u seq size rel dummy payloadLen

// encodeRecordInto serializes t into buf (grown as needed) and returns
// the filled slice; callers reuse one scratch buffer across records.
func encodeRecordInto(buf []byte, t join.Tuple) []byte {
	need := recordHeader + len(t.Payload)
	if cap(buf) < need {
		buf = make([]byte, need)
	} else {
		buf = buf[:need]
	}
	binary.LittleEndian.PutUint64(buf[0:], uint64(t.Key))
	binary.LittleEndian.PutUint64(buf[8:], uint64(t.Aux))
	binary.LittleEndian.PutUint64(buf[16:], t.U)
	binary.LittleEndian.PutUint64(buf[24:], t.Seq)
	binary.LittleEndian.PutUint32(buf[32:], uint32(t.Size))
	buf[36] = byte(t.Rel)
	// The buffer is reused, so the dummy byte must be written on both
	// branches — a stale 1 from a previous record would otherwise leak.
	buf[37] = 0
	if t.Dummy {
		buf[37] = 1
	}
	binary.LittleEndian.PutUint32(buf[38:], uint32(len(t.Payload)))
	copy(buf[recordHeader:], t.Payload)
	return buf
}

func decodeRecord(buf []byte) (join.Tuple, int) {
	t := join.Tuple{
		Key:   int64(binary.LittleEndian.Uint64(buf[0:])),
		Aux:   int64(binary.LittleEndian.Uint64(buf[8:])),
		U:     binary.LittleEndian.Uint64(buf[16:]),
		Seq:   binary.LittleEndian.Uint64(buf[24:]),
		Size:  int32(binary.LittleEndian.Uint32(buf[32:])),
		Rel:   matrix.Side(buf[36]),
		Dummy: buf[37] == 1,
	}
	plen := int(binary.LittleEndian.Uint32(buf[38:]))
	if plen > 0 {
		t.Payload = append([]byte(nil), buf[recordHeader:recordHeader+plen]...)
	}
	return t, recordHeader + plen
}

func (g *segment) append(t join.Tuple, m *Metrics) {
	g.scratch = encodeRecordInto(g.scratch, t)
	rec := g.scratch
	if _, err := g.f.WriteAt(rec, g.off); err != nil {
		return // best effort; the directory entry is only added on success
	}
	skeleton := join.Tuple{Key: t.Key, U: t.U, Aux: g.off, Rel: t.Rel, Seq: t.Seq}
	g.dir.Insert(skeleton)
	g.off += int64(len(rec))
	g.n++
	g.bytes += t.Bytes()
	m.SpilledTuples.Add(1)
	m.SpilledBytes.Add(t.Bytes())
	m.DiskWrites.Add(1)
}

func (g *segment) readAt(off int64, m *Metrics) (join.Tuple, bool) {
	var hdr [recordHeader]byte
	if _, err := g.f.ReadAt(hdr[:], off); err != nil {
		return join.Tuple{}, false
	}
	plen := int(binary.LittleEndian.Uint32(hdr[38:]))
	buf := hdr[:]
	if plen > 0 {
		full := make([]byte, recordHeader+plen)
		if _, err := g.f.ReadAt(full, off); err != nil {
			return join.Tuple{}, false
		}
		buf = full
	}
	t, _ := decodeRecord(buf)
	m.DiskReads.Add(1)
	return t, true
}

// matchAt reads the spilled record at file offset off and, when it
// joins with probe, returns the oriented pair: the read-and-test step
// of the spill probe.
func (g *segment) matchAt(probe join.Tuple, off int64, p join.Predicate, m *Metrics) (join.Pair, bool) {
	t, ok := g.readAt(off, m)
	if !ok {
		return join.Pair{}, false
	}
	if probe.Rel == matrix.SideR {
		if p.Matches(probe, t) {
			return join.Pair{R: probe, S: t}, true
		}
	} else {
		if p.Matches(t, probe) {
			return join.Pair{R: t, S: probe}, true
		}
	}
	return join.Pair{}, false
}

// probeBatch probes a run of same-side tuples against the spilled
// records: one directory-gathering pass per run (a single closure
// collecting candidate file offsets, instead of a probe closure per
// tuple), then a read-and-test loop appending passing pairs to *out.
// The predicate runs on the materialized record, never on the
// skeleton, whose Aux carries the file offset.
func (g *segment) probeBatch(ts []join.Tuple, p join.Predicate, out *[]join.Pair, m *Metrics) {
	hits := g.hits[:0]
	probe := int32(0)
	gather := func(skel join.Tuple) { hits = append(hits, segHit{probe: probe, off: skel.Aux}) }
	for i := range ts {
		if ts[i].Dummy {
			continue
		}
		probe = int32(i)
		g.dir.Probe(ts[i], gather)
	}
	for _, ht := range hits {
		if pr, ok := g.matchAt(ts[ht.probe], ht.off, p, m); ok {
			*out = append(*out, pr)
		}
	}
	// Cap the retained scratch so one high-fanout run against a hot
	// spilled key does not pin its peak capacity for the segment's
	// lifetime (mirrors the memory tier's gather-scratch cap).
	if cap(hits) > maxSegHitsCap {
		hits = nil
	}
	g.hits = hits[:0]
}

// maxSegHitsCap bounds the spill-probe gather scratch retained
// between runs.
const maxSegHitsCap = 1 << 15

func (g *segment) len() int { return g.n }

func (g *segment) scan(fn func(join.Tuple) bool, m *Metrics) {
	buf, err := os.ReadFile(g.path)
	if err != nil {
		return
	}
	m.DiskReads.Add(int64(g.n))
	for pos := 0; pos < int(g.off); {
		t, sz := decodeRecord(buf[pos:])
		pos += sz
		if !fn(t) {
			return
		}
	}
}

// retain rewrites the segment keeping only passing tuples.
func (g *segment) retain(keep func(join.Tuple) bool, cfg Config, p join.Predicate, m *Metrics) int {
	var kept []join.Tuple
	removed := 0
	var removedBytes int64
	g.scan(func(t join.Tuple) bool {
		if keep(t) {
			kept = append(kept, t)
		} else {
			removed++
			removedBytes += t.Bytes()
		}
		return true
	}, m)
	// Rewrite from scratch. Records relocate, so outstanding spill
	// watermarks must stop validating.
	_ = g.f.Truncate(0)
	g.off, g.n, g.bytes = 0, 0, 0
	g.rewrites++
	g.dir = join.NewIndex(p)
	mm := &Metrics{} // rewrite is not a new spill; count only the writes
	for _, t := range kept {
		g.append(t, mm)
	}
	m.DiskWrites.Add(mm.DiskWrites.Load())
	m.SpilledTuples.Add(int64(-removed))
	m.SpilledBytes.Add(-removedBytes)
	return removed
}

func (g *segment) close() error {
	err := g.f.Close()
	if rmErr := os.Remove(g.path); err == nil {
		err = rmErr
	}
	if err != nil {
		return fmt.Errorf("storage: close segment %s: %w", filepath.Base(g.path), err)
	}
	return nil
}
