package core

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/join"
)

// flatRing is the reference a replay ring must match: one flat slice
// and the trimmed-item count, with Trim's and the stop-path undo's
// semantics spelled out on it.
type flatRing struct {
	base  int64
	items []join.Tuple
}

func (f *flatRing) trim(cut int64) {
	if drop := cut - f.base; drop > 0 {
		f.items = f.items[min(drop, int64(len(f.items))):]
		f.base = cut
	}
}

// logItems builds n items in log order: Key numbers them from next,
// Seq is random (maxSeq must find it anywhere), and each carries a
// payload so a slot left holding one is visible.
func logItems(rng *rand.Rand, next *int64, n int) []join.Tuple {
	out := make([]join.Tuple, n)
	for i := range out {
		*next++
		out[i] = join.Tuple{Key: *next, Seq: rng.Uint64()>>1 + 1, Payload: []byte{byte(*next)}}
	}
	return out
}

func zeroItem(it *join.Tuple) bool {
	return it.Key == 0 && it.Seq == 0 && it.Payload == nil
}

// checkRing compares one ring with its reference: Len, the items and
// their order as snapshotRing returns them, base, and the segment
// shape — every segment but the newest full, the slots Trim cut from
// the leading one and every slot past the newest one's fill zeroed.
func checkRing(t *testing.T, step int, l *ReplayLog, d int, ref *flatRing) {
	t.Helper()
	rg := &l.rings[d]
	if rg.base != ref.base {
		t.Fatalf("step %d ring %d: base %d, want %d", step, d, rg.base, ref.base)
	}
	got := l.snapshotRing(d)
	if len(got) != len(ref.items) || rg.n != len(ref.items) {
		t.Fatalf("step %d ring %d: %d items (n %d), want %d", step, d, len(got), rg.n, len(ref.items))
	}
	for i := range got {
		if got[i].Key != ref.items[i].Key || got[i].Seq != ref.items[i].Seq {
			t.Fatalf("step %d ring %d: item %d is %d, want %d", step, d, i, got[i].Key, ref.items[i].Key)
		}
	}
	for i, seg := range rg.segs {
		lo := 0
		if i == 0 {
			lo = rg.head
			for j := range seg[:lo] {
				if !zeroItem(&seg[j]) {
					t.Fatalf("step %d ring %d: trimmed slot %d still holds item %d", step, d, j, seg[j].Key)
				}
			}
		}
		if len(seg) == lo {
			t.Fatalf("step %d ring %d: segment %d of %d holds no item", step, d, i, len(rg.segs))
		}
		if i < len(rg.segs)-1 && len(seg) != cap(seg) {
			t.Fatalf("step %d ring %d: segment %d of %d is %d/%d full", step, d, i, len(rg.segs), len(seg), cap(seg))
		}
		if tail := seg[len(seg):cap(seg)]; i == len(rg.segs)-1 {
			for j := range tail {
				if !zeroItem(&tail[j]) {
					t.Fatalf("step %d ring %d: slot %d past the fill holds item %d", step, d, len(seg)+j, tail[j].Key)
				}
			}
		}
	}
}

// TestReplayLogSegmentsMatchFlatReference drives a two-ring replay log
// and a flat-slice reference through the same random history: appends
// of one item up to twice the segment cap, stop-path undos (append,
// then truncate back), and Trims cutting mid-segment, on a segment
// boundary, past the end and behind the base. Len, snapshotRing order,
// maxSeq and base must agree after every step, and no cut or
// taken-back slot may keep an item reachable.
func TestReplayLogSegmentsMatchFlatReference(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const rings = 2
	l := newReplayLog(rings)
	refs := make([]flatRing, rings)
	var next int64
	appendSize := func() int {
		switch rng.Intn(20) {
		case 0:
			return 1 + rng.Intn(2*replaySegMax)
		case 1, 2, 3:
			return 1
		default:
			return 1 + rng.Intn(3*replaySegMin)
		}
	}
	for step := 0; step < 400; step++ {
		d := rng.Intn(rings)
		rg, ref := &l.rings[d], &refs[d]
		switch op := rng.Intn(10); {
		case op < 5:
			items := logItems(rng, &next, appendSize())
			rg.append(items)
			ref.items = append(ref.items, items...)
		case op < 7:
			n0 := rg.n
			rg.append(logItems(rng, &next, appendSize()))
			rg.truncate(n0)
		default:
			cuts := make([]int64, rings)
			for i := range cuts {
				r, f := &l.rings[i], &refs[i]
				var drop int64
				switch rng.Intn(5) {
				case 0: // mid-segment
					drop = rng.Int63n(int64(len(f.items)) + 1)
				case 1: // on a segment boundary
					if len(r.segs) > 0 {
						k := rng.Intn(len(r.segs))
						drop = int64(len(r.segs[0]) - r.head)
						for _, seg := range r.segs[1 : k+1] {
							drop += int64(len(seg))
						}
					}
				case 2: // past the end
					drop = int64(len(f.items)) + 1 + rng.Int63n(100)
				case 3: // behind the base: a no-op
					drop = -rng.Int63n(f.base + 1)
				default: // exactly the end
					drop = int64(len(f.items))
				}
				cuts[i] = f.base + drop
			}
			l.Trim(cuts)
			for i := range refs {
				refs[i].trim(cuts[i])
			}
		}
		for i := range refs {
			checkRing(t, step, l, i, &refs[i])
		}
		total, max := 0, uint64(0)
		for _, f := range refs {
			total += len(f.items)
			for _, it := range f.items {
				if it.Seq > max {
					max = it.Seq
				}
			}
		}
		if got := l.Len(); got != total {
			t.Fatalf("step %d: Len %d, want %d", step, got, total)
		}
		if got := l.maxSeq(); got != max {
			t.Fatalf("step %d: maxSeq %d, want %d", step, got, max)
		}
	}
}

// TestReplayLogConcurrentTrim runs two feeders appending to one ring —
// each append under the ring mutex, as Operator.push does — while a
// third goroutine trims to cuts behind what has been appended and a
// fourth reads Len, maxSeq and snapshotRing. The final log must hold
// exactly the items past the last cut, in append order. Run it under
// -race: it is the segment list's concurrency net.
func TestReplayLogConcurrentTrim(t *testing.T) {
	l := newReplayLog(1)
	rg := &l.rings[0]
	var (
		order    []int64 // keys in log order, appended under rg.mu
		appended atomic.Int64
		next     atomic.Int64
		wg       sync.WaitGroup
	)
	const perFeeder = 20000
	for f := 0; f < 2; f++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for sent := 0; sent < perFeeder; {
				n := min(1+rng.Intn(300), perFeeder-sent)
				items := make([]join.Tuple, n)
				for i := range items {
					k := next.Add(1)
					items[i] = join.Tuple{Key: k, Seq: uint64(k), Payload: []byte{1}}
				}
				rg.mu.Lock()
				rg.append(items)
				for i := range items {
					order = append(order, items[i].Key)
				}
				appended.Add(int64(n))
				rg.mu.Unlock()
				sent += n
			}
		}(int64(f + 1))
	}
	done := make(chan struct{})
	var lastCut atomic.Int64
	var side sync.WaitGroup
	side.Add(2)
	go func() { // trimmer
		defer side.Done()
		rng := rand.New(rand.NewSource(9))
		for {
			select {
			case <-done:
				return
			default:
			}
			if a := appended.Load(); a > lastCut.Load() {
				cut := lastCut.Load() + rng.Int63n(a-lastCut.Load()+1)
				l.Trim([]int64{cut})
				lastCut.Store(cut)
			}
		}
	}()
	go func() { // reader
		defer side.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = l.Len()
			_ = l.maxSeq()
			_ = l.snapshotRing(0)
		}
	}()
	wg.Wait()
	close(done)
	side.Wait()

	cut := lastCut.Load()
	want := order[cut:]
	got := l.snapshotRing(0)
	if l.Len() != len(want) || len(got) != len(want) {
		t.Fatalf("log holds %d items (Len %d), want %d past cut %d", len(got), l.Len(), len(want), cut)
	}
	for i := range got {
		if got[i].Key != want[i] {
			t.Fatalf("item %d is %d, want %d", i, got[i].Key, want[i])
		}
	}
	if wantMax := slices.Max(append([]int64{0}, want...)); l.maxSeq() != uint64(wantMax) {
		t.Fatalf("maxSeq %d, want %d", l.maxSeq(), wantMax)
	}
	ref := &flatRing{base: cut, items: got}
	checkRing(t, 0, l, 0, ref)
}
