package join

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/matrix"
)

// slotMsg is one published window as a reader receives it.
type slotMsg struct {
	run []Tuple
	w   Window
}

// TestSlotIndexAsOf is the property behind segments: over random
// interleavings of one writer's appends and several readers' windows,
// every probe a reader makes of its store — segments read as of its
// watermark plus its private directory — returns exactly what a private
// HashIndex built from the same windows returns. The writer runs ahead
// of the readers on its own goroutine, so their probes meet rows at and
// past their watermarks, directories swapped under them and blocks not
// yet in the table they loaded. The runs mix duplicate and distinct
// keys under a narrowed tagMask (every home slot contested by keys of
// one tag), payloads that force fresh blocks after published
// payload-free rows, dummies, and windows written row by row (a
// reshuffler slot) and whole (a worker's AppendRun). Near the end a
// whole run past a block gets the zero Window and stops the index, so
// the last windows name none. Reader 0 takes every window; the others
// take gaps — a window they never get, or a run a replay filter
// shortened and stored as a copy — which freeze their segment, after
// which they index the slot privately.
func TestSlotIndexAsOf(t *testing.T) {
	forceTagCollisions(t)
	const readers, windows = 3, 800
	chans := make([]chan slotMsg, readers)
	for i := range chans {
		// Room for the writer to run a few blocks ahead of each reader,
		// as a reshuffler runs ahead of its joiners' inboxes, so probes
		// meet rows past their watermarks.
		chans[i] = make(chan slotMsg, 256)
	}
	var swaps int
	go func() {
		rng := rand.New(rand.NewSource(71))
		var bw BlockWriter
		bw.Reset(readers, true)
		seq := uint64(0)
		publish := func(run []Tuple, w Window) {
			for _, c := range chans {
				c <- slotMsg{run, w}
			}
		}
		stopped := false
		for k := 0; k < windows; {
			n := 1 + rng.Intn(48)
			long := !stopped && k >= windows-20
			if long || rng.Intn(60) == 0 {
				n = arenaChunk + 1 + rng.Intn(40)
			}
			run := make([]Tuple, n)
			for i := range run {
				seq++
				key := rng.Int63n(512)
				if rng.Intn(3) == 0 {
					key = rng.Int63n(1 << 40)
				}
				run[i] = diffTuple(rng, seq, key)
			}
			var before *slotDir
			if bw.ix != nil {
				before = bw.ix.dir.Load()
			}
			if long || (n <= arenaChunk && rng.Intn(2) == 0) {
				// A worker's frame body: the whole run, or, past a block,
				// the zero Window, after which the slot indexes nothing.
				w := bw.AppendRun(run)
				publish(run, w)
				k++
				stopped = stopped || long
			} else {
				// A reshuffler slot: rows one by one, a window shipped
				// early when the block cannot take the next row.
				writeShared(&bw, run, n, func(r []Tuple, w Window) {
					publish(r, w)
					k++
				})
			}
			if before != nil && bw.ix != nil && bw.ix.dir.Load() != before && n > 1 {
				swaps++
			}
		}
		for _, c := range chans {
			close(c)
		}
	}()

	errs := make([]error, readers)
	var wg sync.WaitGroup
	for id := 0; id < readers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			errs[id] = readSlotWindows(id, chans[id])
			for range chans[id] {
				// A reader that failed drains its channel, so the writer
				// is never left blocked.
			}
		}(id)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", id, err)
		}
	}
	if swaps == 0 {
		t.Fatal("no directory grew while a window was indexed")
	}
}

// readSlotWindows is one reader of TestSlotIndexAsOf: it stores the
// windows it takes into a store under test and copies of the same runs
// into a reference, and compares both after every window.
func readSlotWindows(id int, in <-chan slotMsg) error {
	rng := rand.New(rand.NewSource(int64(100 + id)))
	h, ref := NewHashIndex(), NewHashIndex()
	// frozen: a window after a gap has reached the segment, which must
	// then have stopped at its watermark.
	taken, frozen := 0, false
	gap := false
	var got, want []Pair
	for m := range in {
		run, w := m.run, m.w
		switch g := rng.Intn(40); {
		case id > 0 && taken > 10 && g == 0:
			gap = true
			continue // a window this reader never gets
		case id > 0 && taken > 10 && g == 1 && len(run) > 1:
			// A replay filter dropped a tuple: the rest is stored as a copy.
			drop := rng.Intn(len(run))
			run = append(append([]Tuple(nil), run[:drop]...), run[drop+1:]...)
			w = Window{}
			gap = true
		default:
			frozen = frozen || (gap && w.ix != nil)
		}
		h.InsertWindow(run, w)
		ref.InsertBatch(run)
		taken++

		// Probe keys of the run (hits, some on the window's own rows), an
		// older key and a miss.
		probes := make([]Tuple, 0, 6)
		for i := 0; i < 4 && len(run) > 0; i++ {
			tp := &run[rng.Intn(len(run))]
			probes = append(probes, Tuple{Rel: matrix.SideR, Key: tp.Key, Seq: tp.Seq})
		}
		probes = append(probes, Tuple{Rel: matrix.SideR, Key: rng.Int63n(512)}, Tuple{Rel: matrix.SideR, Key: -1})
		for _, p := range probes {
			var g, r []Tuple
			h.Probe(p, func(s Tuple) { g = append(g, s) })
			ref.Probe(p, func(s Tuple) { r = append(r, s) })
			if err := sameSeqs(g, r); err != nil {
				return fmt.Errorf("window %d, probe of key %d: %v", taken, p.Key, err)
			}
		}
		got, want = got[:0], want[:0]
		h.ProbeBatchCollect(probes, matrix.SideR, EquiJoin("eq", nil), &got)
		ref.ProbeBatchCollect(probes, matrix.SideR, EquiJoin("eq", nil), &want)
		if err := pairsMatch(got, want); err != nil {
			return fmt.Errorf("window %d, batch probe: %v", taken, err)
		}
	}
	if h.Len() != ref.Len() || h.Bytes() != ref.Bytes() {
		return fmt.Errorf("stores %d tuples (%d B), reference %d (%d B)", h.Len(), h.Bytes(), ref.Len(), ref.Bytes())
	}
	if len(h.segs) != 1 {
		return fmt.Errorf("reads %d segments, want the slot's one", len(h.segs))
	}
	if live := h.segs[0].live; live == frozen {
		return fmt.Errorf("segment live = %v, want %v", live, !frozen)
	}
	if h.serving() {
		return fmt.Errorf("segment serves after its writer stopped indexing")
	}
	return nil
}

// sameSeqs compares two tuple multisets whose Seq values are unique.
func sameSeqs(got, want []Tuple) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d tuples, reference %d", len(got), len(want))
	}
	got = append([]Tuple(nil), got...)
	want = append([]Tuple(nil), want...)
	sort.Slice(got, func(i, j int) bool { return got[i].Seq < got[j].Seq })
	sort.Slice(want, func(i, j int) bool { return want[i].Seq < want[j].Seq })
	for i := range got {
		if !eqTuple(got[i], want[i]) {
			return fmt.Errorf("tuple %d = %+v, reference %+v", i, got[i], want[i])
		}
	}
	return nil
}

// pairsMatch compares two pair multisets by their tuples' Seq values.
func pairsMatch(got, want []Pair) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d pairs, reference %d", len(got), len(want))
	}
	count := map[[2]uint64]int{}
	for _, p := range want {
		count[[2]uint64{p.R.Seq, p.S.Seq}]++
	}
	for _, p := range got {
		k := [2]uint64{p.R.Seq, p.S.Seq}
		if count[k] == 0 {
			return fmt.Errorf("pair %v not in the reference", k)
		}
		count[k]--
	}
	return nil
}

// BenchmarkRowInsertProbe is the layer ledger's row of the slot index:
// the sixteen joiners of one (4,4) grid take a uniform stream (keys of
// 2^22, R and S alternating) in runs of 32 from w reshufflers, each
// with a writer per row and column slot, every run probing its
// opposite side at the four joiners of its row or column and then
// stored there — as views of the writers' blocks in both modes. In
// "private" each joiner indexes every window in its own directory and
// chain columns; in "slot" the writers index each row once and every
// probe reads one slot index per reshuffler. It reports the cost of
// one stored replica, writer work included: ns/tuple of wall time and
// B/tuple of heap growth (shares of the blocks, chain links and
// directories).
func BenchmarkRowInsertProbe(b *testing.B) {
	for _, writers := range []int{1, 2, 4, 8, 16} {
		for _, slot := range []bool{false, true} {
			name := "private"
			if slot {
				name = "slot"
			}
			b.Run(fmt.Sprintf("%s/w=%d", name, writers), func(b *testing.B) {
				benchGridInsertProbe(b, writers, slot)
			})
		}
	}
}

func benchGridInsertProbe(b *testing.B, writers int, slot bool) {
	const side, run = 4, 32
	pred := EquiJoin("eq", nil)
	rng := rand.New(rand.NewSource(1))
	var locals [side][side]*Local
	for i := range locals {
		for j := range locals[i] {
			locals[i][j] = NewLocal(pred)
		}
	}
	stream := make([]Tuple, b.N)
	for i := range stream {
		stream[i] = Tuple{Rel: matrix.Side((i / run) % 2), Key: rng.Int63n(1 << 22), Size: 8, Seq: uint64(i + 1)}
	}
	// bws[k][rel][p] is reshuffler k's writer of row (R) or column (S) p.
	bws := make([][2][side]BlockWriter, writers)
	for k := range bws {
		for rel := range bws[k] {
			for p := range bws[k][rel] {
				bws[k][rel][p].Reset(side, slot)
			}
		}
	}
	var out []Pair
	var line matrix.Side
	var p int
	store := func(r []Tuple, w Window) {
		for q := 0; q < side; q++ {
			l := locals[p][q]
			if line == matrix.SideS {
				l = locals[q][p]
			}
			out = out[:0]
			l.AddWindowCollect(r, w, &out)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i += run {
		line, p = stream[i].Rel, rng.Intn(side)
		writeShared(&bws[(i/(2*run))%writers][line][p], stream[i:min(i+run, b.N)], run, store)
	}
	elapsed := time.Since(start)
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&after)
	replicas := float64(side * b.N)
	b.ReportMetric(float64(elapsed.Nanoseconds())/replicas, "ns/tuple")
	b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/replicas, "B/tuple")
	runtime.KeepAlive(&locals)
	runtime.KeepAlive(bws)
	runtime.KeepAlive(stream)
}
