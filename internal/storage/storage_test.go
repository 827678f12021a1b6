package storage

import (
	"errors"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"testing"

	"repro/internal/exact"
	"repro/internal/join"
	"repro/internal/matrix"
)

func tup(rel matrix.Side, key int64, seq uint64) join.Tuple {
	return join.Tuple{Rel: rel, Key: key, Size: 16, Seq: seq, U: seq * 2654435761}
}

// add is the store's per-tuple probe-then-store step: t as a one-tuple
// run. It returns how many pairs the step emitted.
func add(s *Store, t join.Tuple) int64 {
	var out []join.Pair
	s.AddBatchCollect([]join.Tuple{t}, &out)
	return int64(len(out))
}

// oracle is exact's multiset of p over rs × ss, each pair keyed by its
// members' seqs: a sort-merge for a residual-free equi or band
// predicate, a nested loop over Matches otherwise.
func oracle(p join.Predicate, rs, ss []join.Tuple) [][2]uint64 {
	if p.Residual != nil || p.Kind == join.Theta {
		return exact.Theta(rs, ss, func(r, s *join.Tuple) bool { return p.Matches(*r, *s) }, seqPair)
	}
	w := p.Width
	if p.Kind == join.Equi {
		w = 0
	}
	return exact.Band(rs, ss, w, func(t *join.Tuple) (int64, bool) { return t.Key, !t.Dummy }, seqPair)
}

func seqPair(r, s *join.Tuple) [2]uint64 { return [2]uint64{r.Seq, s.Seq} }

// seqKeys keys emitted pairs as oracle does.
func seqKeys(ps []join.Pair) [][2]uint64 {
	out := make([][2]uint64, len(ps))
	for i := range ps {
		out[i] = seqPair(&ps[i].R, &ps[i].S)
	}
	return out
}

func TestStoreInMemoryJoin(t *testing.T) {
	s := NewStore(join.EquiJoin("eq", nil), Config{})
	defer s.Close()
	n := add(s, tup(matrix.SideR, 1, 1))
	n += add(s, tup(matrix.SideS, 1, 2))
	n += add(s, tup(matrix.SideS, 1, 3))
	if n != 2 {
		t.Fatalf("emitted %d, want 2", n)
	}
	if s.Spilled() {
		t.Fatal("unbounded store spilled")
	}
	if s.TotalLen() != 3 {
		t.Fatalf("TotalLen=%d", s.TotalLen())
	}
}

// With a tiny memory cap, the join result must still be exactly the
// reference join: spilled tuples remain probe-able via the directory.
func TestStoreSpillPreservesJoinResult(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := join.EquiJoin("eq", nil)
	s := NewStore(p, Config{CapBytes: 200, Dir: t.TempDir()}) // ~12 tuples in memory
	defer s.Close()

	var rs, ss []join.Tuple
	var out []join.Pair
	seq := uint64(0)
	for i := 0; i < 300; i++ {
		seq++
		rs = append(rs, tup(matrix.SideR, int64(rng.Intn(40)), seq))
		s.AddBatchCollect(rs[i:i+1], &out)
		seq++
		ss = append(ss, tup(matrix.SideS, int64(rng.Intn(40)), seq))
		s.AddBatchCollect(ss[i:i+1], &out)
	}
	if !s.Spilled() {
		t.Fatal("expected spill with 200-byte cap")
	}
	exact.Equal(t, seqKeys(out), oracle(p, rs, ss))
	if s.Metrics.DiskReads.Load() == 0 {
		t.Fatal("no disk reads recorded despite spilled probes")
	}
}

func TestStoreSpillBandJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := join.BandJoin("band", 2, nil)
	s := NewStore(p, Config{CapBytes: 160, Dir: t.TempDir()})
	defer s.Close()
	var rs, ss []join.Tuple
	var out []join.Pair
	for i := 0; i < 200; i++ {
		rs = append(rs, tup(matrix.SideR, int64(rng.Intn(100)), uint64(2*i)))
		ss = append(ss, tup(matrix.SideS, int64(rng.Intn(100)), uint64(2*i+1)))
		s.AddBatchCollect(rs[i:i+1], &out)
		s.AddBatchCollect(ss[i:i+1], &out)
	}
	exact.Equal(t, seqKeys(out), oracle(p, rs, ss))
}

func TestStoreLenAndBytesAcrossTiers(t *testing.T) {
	s := NewStore(join.EquiJoin("eq", nil), Config{CapBytes: 64, Dir: t.TempDir()})
	defer s.Close()
	for i := 0; i < 10; i++ {
		s.Insert(tup(matrix.SideR, int64(i), uint64(i)))
	}
	if s.Len(matrix.SideR) != 10 {
		t.Fatalf("Len=%d", s.Len(matrix.SideR))
	}
	if s.Bytes() != 160 {
		t.Fatalf("Bytes=%d", s.Bytes())
	}
	if got := s.Metrics.SpilledTuples.Load(); got != 6 {
		t.Fatalf("SpilledTuples=%d", got)
	}
	if mem := int64(s.TotalLen()) - s.Metrics.SpilledTuples.Load(); mem != 4 {
		t.Fatalf("memory tier holds %d, want 4 (64-byte cap, 16-byte tuples)", mem)
	}
}

func TestStoreScanVisitsBothTiers(t *testing.T) {
	s := NewStore(join.EquiJoin("eq", nil), Config{CapBytes: 48, Dir: t.TempDir()})
	defer s.Close()
	seen := make(map[int64]bool)
	for i := 0; i < 8; i++ {
		s.Insert(tup(matrix.SideS, int64(i), uint64(i)))
	}
	s.Scan(matrix.SideS, func(tp join.Tuple) bool {
		seen[tp.Key] = true
		return true
	})
	if len(seen) != 8 {
		t.Fatalf("scan saw %d distinct keys, want 8", len(seen))
	}
	// Early stop must be honored.
	count := 0
	s.Scan(matrix.SideS, func(join.Tuple) bool { count++; return count < 2 })
	if count != 2 {
		t.Fatalf("early-stop scan visited %d", count)
	}
}

func TestStoreRetainAcrossTiers(t *testing.T) {
	s := NewStore(join.EquiJoin("eq", nil), Config{CapBytes: 48, Dir: t.TempDir()})
	defer s.Close()
	for i := 0; i < 12; i++ {
		// Odd keys route to the upper half of the u space.
		tp := tup(matrix.SideS, int64(i), uint64(i))
		tp.U = uint64(i%2) << 63
		s.Insert(tp)
	}
	removed := s.Retain(matrix.SideS, matrix.Top{Shift: 63, Val: 0})
	if removed != 6 {
		t.Fatalf("removed=%d", removed)
	}
	if s.Len(matrix.SideS) != 6 {
		t.Fatalf("Len after retain=%d", s.Len(matrix.SideS))
	}
	s.Scan(matrix.SideS, func(tp join.Tuple) bool {
		if tp.Key%2 != 0 {
			t.Fatalf("odd key %d survived", tp.Key)
		}
		return true
	})
	// Probing after a retain must only hit survivors.
	if n := probeCount(s, tup(matrix.SideR, 3, 100)); n != 0 {
		t.Fatalf("probe hit removed tuple")
	}
	if n := probeCount(s, tup(matrix.SideR, 4, 101)); n != 1 {
		t.Fatalf("probe missed survivor, emitted %d", n)
	}
}

func TestStorePayloadRoundTrip(t *testing.T) {
	s := NewStore(join.EquiJoin("eq", nil), Config{CapBytes: 1, Dir: t.TempDir()})
	defer s.Close()
	in := join.Tuple{Rel: matrix.SideS, Key: 7, Aux: 9, U: 0xdead, Seq: 3, Size: 64,
		Payload: []byte("hello payload")}
	s.Insert(in)
	var got join.Tuple
	s.Scan(matrix.SideS, func(tp join.Tuple) bool { got = tp; return true })
	if got.Key != 7 || got.Aux != 9 || got.U != 0xdead || got.Seq != 3 || got.Size != 64 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if string(got.Payload) != "hello payload" {
		t.Fatalf("payload %q", got.Payload)
	}
}

func TestStoreDummyNeverJoins(t *testing.T) {
	s := NewStore(join.EquiJoin("eq", nil), Config{CapBytes: 1, Dir: t.TempDir()})
	defer s.Close()
	d := tup(matrix.SideR, 5, 1)
	d.Dummy = true
	n := add(s, d)
	n += add(s, tup(matrix.SideS, 5, 2))
	if n != 0 {
		t.Fatalf("dummy joined: %d", n)
	}
}

func TestEncodeDecodeRecord(t *testing.T) {
	in := join.Tuple{Rel: matrix.SideS, Key: -42, Aux: 1 << 40, U: ^uint64(0), Seq: 77,
		Size: 3, Dummy: true, Payload: []byte{1, 2, 3}}
	buf := encodeRecordInto(nil, in)
	// Reusing the buffer must overwrite every stale byte — in
	// particular the dummy flag the previous record set.
	if clean, _ := decodeRecord(encodeRecordInto(buf, join.Tuple{Rel: matrix.SideR, Key: 1})); clean.Dummy {
		t.Fatal("stale dummy byte survived buffer reuse")
	}
	buf = encodeRecordInto(buf, in)
	out, n := decodeRecord(buf)
	if n != len(buf) {
		t.Fatalf("decoded %d bytes of %d", n, len(buf))
	}
	if out.Key != in.Key || out.Aux != in.Aux || out.U != in.U || out.Seq != in.Seq ||
		out.Size != in.Size || out.Rel != in.Rel || out.Dummy != in.Dummy {
		t.Fatalf("mismatch: %+v vs %+v", out, in)
	}
	if len(out.Payload) != 3 || out.Payload[2] != 3 {
		t.Fatalf("payload %v", out.Payload)
	}
}

// TestRecordFlags: the record keeps an empty payload apart from none,
// and ReadRecord rejects a flag bit no encoder writes and an empty
// payload flagged with a length.
func TestRecordFlags(t *testing.T) {
	for _, p := range [][]byte{nil, {}, {9}} {
		for _, dummy := range []bool{false, true} {
			in := join.Tuple{Rel: matrix.SideS, Key: 3, Seq: 4, Dummy: dummy, Payload: p}
			out, n, err := ReadRecord(AppendRecord(nil, in))
			if err != nil || n != recordHeader+len(p) {
				t.Fatalf("payload %#v: read %d bytes, %v", p, n, err)
			}
			if out.Dummy != dummy || (out.Payload == nil) != (p == nil) || len(out.Payload) != len(p) {
				t.Fatalf("payload %#v dummy %v: read back %#v dummy %v", p, dummy, out.Payload, out.Dummy)
			}
		}
	}
	for bit := 2; bit < 8; bit++ {
		buf := AppendRecord(nil, join.Tuple{Key: 1})
		buf[37] |= 1 << bit
		if _, _, err := ReadRecord(buf); err == nil {
			t.Fatalf("flag bit %d read", bit)
		}
	}
	buf := AppendRecord(nil, join.Tuple{Key: 1, Payload: []byte{5}})
	buf[37] |= recEmptyPayload
	if _, _, err := ReadRecord(buf); err == nil {
		t.Fatal("a one-byte payload flagged empty read")
	}
}

func TestStoreCloseIsIdempotentEnough(t *testing.T) {
	s := NewStore(join.EquiJoin("eq", nil), Config{CapBytes: 1, Dir: t.TempDir()})
	s.Insert(tup(matrix.SideR, 1, 1))
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// spillSome returns a store over dir holding n S tuples of keys 0..n-1,
// most of them in its spill segment.
func spillSome(t *testing.T, n int) *Store {
	t.Helper()
	s := NewStore(join.EquiJoin("eq", nil), Config{CapBytes: 48, Dir: t.TempDir()})
	for i := 0; i < n; i++ {
		s.Insert(tup(matrix.SideS, int64(i), uint64(i+1)))
	}
	if s.segs[matrix.SideS] == nil || s.segs[matrix.SideS].len() == 0 {
		t.Fatal("nothing spilled")
	}
	return s
}

// A spill write that fails keeps the tuple in the memory tier, and a
// spill read that fails is reported by Close.
func TestStoreSpillWriteErrorKeepsTuples(t *testing.T) {
	s := spillSome(t, 8)
	if err := s.segs[matrix.SideS].f.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 110; i++ {
		s.Insert(tup(matrix.SideS, int64(i), uint64(i)))
	}
	if n := s.Len(matrix.SideS); n != 18 {
		t.Fatalf("Len %d after inserts into a closed segment, want 18", n)
	}
	for i := 100; i < 110; i++ {
		if n := probeCount(s, tup(matrix.SideR, int64(i), uint64(1000+i))); n != 1 {
			t.Fatalf("key %d: %d pairs, want 1", i, n)
		}
	}
	// A tuple spilled before the close cannot be read back: the probe
	// misses it, and Close says so.
	probeCount(s, tup(matrix.SideR, 7, 2000))
	if err := s.Close(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Close = %v, want a read error wrapping os.ErrClosed", err)
	}
}

// A capture that cannot read its spilled records back fails instead of
// returning a short capture, and Close still reports the read.
func TestStoreCaptureFailsOnUnreadableSpill(t *testing.T) {
	s := spillSome(t, 8)
	if err := os.Truncate(s.segs[matrix.SideS].path, 0); err != nil {
		t.Fatal(err)
	}
	if c, _, _, err := s.Capture(nil); c != nil || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Capture = %v, %v; want no capture and the failed read", c, err)
	}
	if err := s.Close(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Close = %v, want the failed read", err)
	}
}

// A segment whose file cannot be read survives Retain whole, and Close
// reports the failed read.
func TestStoreRetainKeepsUnreadableSegment(t *testing.T) {
	s := spillSome(t, 8)
	seg := s.segs[matrix.SideS]
	spilled := seg.len()
	if err := os.Remove(seg.path); err != nil {
		t.Fatal(err)
	}
	if removed := s.Retain(matrix.SideS, matrix.Top{Shift: 63, Val: 0}); removed != 0 {
		t.Fatalf("Retain removed %d, want 0", removed)
	}
	if s.segs[matrix.SideS].len() != spilled || s.Len(matrix.SideS) != 8 {
		t.Fatalf("segment holds %d of %d, store %d of 8", s.segs[matrix.SideS].len(), spilled, s.Len(matrix.SideS))
	}
	for i := 0; i < 8; i++ {
		if n := probeCount(s, tup(matrix.SideR, int64(i), uint64(1000+i))); n != 1 {
			t.Fatalf("key %d: %d pairs, want 1", i, n)
		}
	}
	if err := s.Close(); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Close = %v, want an error wrapping fs.ErrNotExist", err)
	}
}
