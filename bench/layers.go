package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	squall "repro"
	"repro/internal/dataflow"
	"repro/internal/join"
	"repro/internal/matrix"
	imetrics "repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/transport"
)

// The replays price each layer from outside: the benchmark calls the
// layer's own entry points over the workload's stream (or over frames
// shaped like the workload's envelopes) on one goroutine and divides
// time by work. Each is one root span of the trace.

// joinerShare returns the sub-stream one joiner of the square grid
// sees: R tuples of grid row 0 and S tuples of column 0 under routing
// values the benchmark draws, in stream order.
func joinerShare(ts []squall.Tuple, seed int64) []squall.Tuple {
	g := matrix.Square(joiners)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var out []squall.Tuple
	for _, t := range ts {
		t.U = rng.Uint64()
		if (t.Rel == matrix.SideR && g.RowOf(t.U) == 0) || (t.Rel == matrix.SideS && g.ColOf(t.U) == 0) {
			out = append(out, t)
		}
	}
	return out
}

// heapAlloc returns the live heap. Two collections, because a
// sync.Pool gives its contents up only on the second.
func heapAlloc() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// replayJoin runs the share through join.Local.AddBatchCollect in
// same-side runs, then through InsertBatch alone; the difference,
// spread over the pairs, is what probing and materializing cost.
func replayJoin(tr *tracer, pred squall.Predicate, share []squall.Tuple, m map[string]float64) {
	before := heapAlloc()
	l := join.NewLocal(pred)
	var out []squall.Pair
	var pairs int64
	full := tr.timed("join.replay", int64(len(share)), func() {
		windows(share, func(run []squall.Tuple) {
			out = out[:0]
			l.AddBatchCollect(run, &out)
			pairs += int64(len(out))
		})
	})
	out = nil
	grown := heapAlloc() - before
	runtime.KeepAlive(l)
	l = join.NewLocal(pred)
	insert := tr.timed("join.replay_insert", int64(len(share)), func() {
		windows(share, l.InsertBatch)
	})
	n := float64(len(share))
	m["join.add_ns_per_tuple"] = float64(full) / n
	m["join.pairs_per_tuple"] = float64(pairs) / n
	m["join.bytes_per_tuple"] = float64(max(grown, 0)) / n
	if pairs > 0 {
		m["join.ns_per_pair"] = float64(max(full-insert, 0)) / float64(pairs)
	}
}

// replayStorage runs the share through the joiner's store wrapper,
// then prices a full snapshot, a delta after 10% more tuples, and a
// restore.
func replayStorage(tr *tracer, pred squall.Predicate, share []squall.Tuple, m map[string]float64) error {
	base := share[:len(share)*10/11]
	s := storage.NewStore(pred, storage.Config{})
	defer s.Close()
	var out []squall.Pair
	add := tr.timed("storage.replay", int64(len(base)), func() {
		windows(base, func(run []squall.Tuple) {
			out = out[:0]
			s.AddBatchCollect(run, &out)
		})
	})
	m["storage.add_ns_per_tuple"] = float64(add) / float64(len(base))

	var snap []byte
	var wm storage.StoreWatermark
	d := tr.timed("storage.snapshot", 0, func() { snap, wm, _ = s.AppendSnapshotSince(nil, nil) })
	m["storage.snapshot_mb_per_s"] = mbPerS(len(snap), d)
	m["storage.snapshot_bytes_per_tuple"] = float64(len(snap)) / float64(len(base))

	windows(share[len(base):], func(run []squall.Tuple) {
		out = out[:0]
		s.AddBatchCollect(run, &out)
	})
	var delta []byte
	d = tr.timed("storage.delta", 0, func() { delta, _, _ = s.AppendSnapshotSince(nil, &wm) })
	m["storage.delta_mb_per_s"] = mbPerS(len(delta), d)

	fresh := storage.NewStore(pred, storage.Config{})
	defer fresh.Close()
	var err error
	d = tr.timed("storage.restore", 0, func() { err = fresh.RestoreSnapshot(snap) })
	if err != nil {
		return fmt.Errorf("storage replay: restore: %w", err)
	}
	if fresh.TotalLen() != len(base) {
		return fmt.Errorf("storage replay: restored %d tuples, snapshot held %d", fresh.TotalLen(), len(base))
	}
	m["storage.restore_mb_per_s"] = mbPerS(len(snap), d)
	return nil
}

func mbPerS(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / 1e6 / d.Seconds()
}

// replayFrames is how many frames each transport measurement carries.
const replayFrames = 20_000

// replayTransport prices a frame whose payload is what one data-plane
// envelope of the workload carries: records tuples in the wire record
// encoding. Codec alone, then across an in-process pipe, then across a
// loopback TCP link.
func replayTransport(tr *tracer, ts []squall.Tuple, records int, m map[string]float64) error {
	var payload []byte
	for _, t := range ts[:min(max(records, 1), len(ts))] {
		payload = storage.AppendRecord(payload, t)
	}
	f := transport.Frame{Kind: transport.KindData, Payload: payload}
	var enc []byte
	d := tr.timed("transport.replay_encode", replayFrames, func() {
		for i := 0; i < replayFrames; i++ {
			enc = transport.AppendFrame(enc[:0], f)
		}
	})
	m["transport.encode_ns_per_frame"] = float64(d) / replayFrames
	var err error
	d = tr.timed("transport.replay_decode", replayFrames, func() {
		for i := 0; i < replayFrames && err == nil; i++ {
			_, err = transport.ReadFrame(bytes.NewReader(enc))
		}
	})
	if err != nil {
		return fmt.Errorf("transport replay: decode: %w", err)
	}
	m["transport.decode_ns_per_frame"] = float64(d) / replayFrames

	a, b := transport.Pipe()
	d, err = pump(tr, "transport.replay_pipe", a, b, f)
	if err != nil {
		return err
	}
	m["transport.pipe_ns_per_frame"] = float64(d) / replayFrames

	lis, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("transport replay: %w", err)
	}
	defer lis.Close()
	accepted := make(chan transport.Link, 1)
	acceptErr := make(chan error, 1)
	go func() {
		l, err := lis.Accept()
		if err != nil {
			acceptErr <- err
			return
		}
		accepted <- l
	}()
	out, err := transport.Dial(lis.Addr())
	if err != nil {
		return fmt.Errorf("transport replay: %w", err)
	}
	var in transport.Link
	select {
	case in = <-accepted:
	case err := <-acceptErr:
		_ = out.Close()
		return fmt.Errorf("transport replay: %w", err)
	}
	d, err = pump(tr, "transport.replay_tcp", out, in, f)
	if err != nil {
		return err
	}
	m["transport.tcp_ns_per_frame"] = float64(d) / replayFrames
	m["transport.tcp_mb_per_s"] = mbPerS(len(enc)*replayFrames, d)
	return nil
}

// pump sends replayFrames copies of f from one end of a link while a
// second goroutine receives them at the other, and closes both ends.
func pump(tr *tracer, name string, out, in transport.Link, f transport.Frame) (time.Duration, error) {
	defer out.Close()
	defer in.Close()
	recvErr := make(chan error, 1)
	var sendErr error
	d := tr.timed(name, replayFrames, func() {
		go func() {
			for i := 0; i < replayFrames; i++ {
				if _, err := in.Recv(); err != nil {
					recvErr <- err
					return
				}
			}
			recvErr <- nil
		}()
		for i := 0; i < replayFrames && sendErr == nil; i++ {
			sendErr = out.Send(f)
		}
		if sendErr != nil {
			_ = out.Close() // unblocks the receiver
		}
		if err := <-recvErr; sendErr == nil {
			sendErr = err
		}
	})
	if sendErr != nil {
		return 0, fmt.Errorf("%s: %w", name, sendErr)
	}
	return d, nil
}

// sinkhole keeps the compiler from discarding the pure calls the small
// replays time.
var sinkhole int

// replaySmall prices the layers whose work per call is tiny: the
// mapping arithmetic, the cardinality counters, the unbounded queue
// and a full read of the metrics block.
func replaySmall(tr *tracer, st *stream, seed int64, m map[string]float64) {
	const calls = 200_000
	d := tr.timed("matrix.replay_optimal", calls, func() {
		for i := 1; i <= calls; i++ {
			g := matrix.Optimal(joiners, float64(st.r)*float64(i)/calls, float64(st.s))
			sinkhole += g.N
		}
	})
	m["matrix.optimal_ns"] = float64(d) / calls

	from := matrix.Square(joiners)
	tn := matrix.NewTransition(from, matrix.Mapping{N: from.N / 2, M: from.M * 2})
	cell := from.CellOf(5)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	us := make([]uint64, len(st.tuples))
	for i := range us {
		us[i] = rng.Uint64()
	}
	d = tr.timed("matrix.replay_keeps", int64(len(us)), func() {
		for i, t := range st.tuples {
			if tn.Keeps(cell, t.Rel, us[i]) {
				sinkhole++
			}
		}
	})
	m["matrix.keeps_ns_per_tuple"] = float64(d) / float64(len(us))

	sh := stats.NewSharded(joiners)
	d = tr.timed("stats.replay", calls, func() {
		for i := 0; i < calls; i++ {
			sh.ObserveN(i%joiners, runLen/2, runLen/2)
		}
	})
	m["stats.observe_ns"] = float64(d) / calls

	q := dataflow.NewQueue[[]byte]()
	item := make([]byte, 8)
	d = tr.timed("dataflow.replay", calls, func() {
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < calls; i++ {
				if _, ok := q.Pop(); !ok {
					return
				}
			}
		}()
		for i := 0; i < calls; i++ {
			q.Push(item)
		}
		<-done
	})
	m["dataflow.queue_ns_per_op"] = float64(d) / (2 * calls)

	om := imetrics.NewOperator(joiners)
	for id := 0; id < joiners; id++ {
		om.JoinerStats(id).InputTuples.Store(int64(1000 + id))
	}
	const reads = 20_000
	d = tr.timed("metrics.replay", reads, func() {
		for i := 0; i < reads; i++ {
			sinkhole += int(readCounters(om).maxILF)
		}
	})
	m["metrics.read_us"] = float64(d) / reads / 1e3
}
