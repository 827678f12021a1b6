package core

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// TestEnvelopeLifetime: an envelope shipped to several joiners returns
// to the pool exactly once, after the last destination releases it —
// whether that reference was held aside at a checkpoint barrier and
// replayed later or dropped by pushData's stop branch. The references
// are released on different goroutines, so run it under -race.
// TestRemoteEnvelopeOneFramePerWorker covers references held by worker
// links.
func TestEnvelopeLifetime(t *testing.T) {
	tuples := []join.Tuple{
		{Rel: matrix.SideR, Key: 1, Seq: 1, U: 1, Payload: []byte("r1")},
		{Rel: matrix.SideR, Key: 2, Seq: 2, U: 1},
	}
	// shared builds a data envelope from link 0 holding refs references.
	shared := func(refs int32) (*envelope, uint32) {
		e := dataEnv(0, tuples...)
		e.refs.Store(refs)
		return e, e.recycled
	}
	// intact fails unless e still holds its body, unrecycled.
	intact := func(t *testing.T, e *envelope, gen uint32, when string) {
		t.Helper()
		if e.recycled != gen || len(e.tuples) != len(tuples) || e.tuples[0].Key != 1 {
			t.Fatalf("%s: envelope recycled %d times with %d tuples, want untouched", when, e.recycled-gen, len(e.tuples))
		}
	}
	recycledOnce := func(t *testing.T, e *envelope, gen uint32) {
		t.Helper()
		if n := e.recycled - gen; n != 1 {
			t.Fatalf("envelope returned to the pool %d times after its last release, want 1", n)
		}
	}

	t.Run("checkpoint-hold", func(t *testing.T) {
		op := mustOperator(t, Config{J: 2, Pred: join.EquiJoin("eq", nil), Initial: matrix.Mapping{N: 1, M: 2}, NumReshufflers: 2})
		holder, reader := op.joiners[0], op.joiners[1]
		holder.ckptC = make(chan ckptEvent, 1)
		holder.handleBatch(ctrlEnv(message{kind: kCkpt, from: 0, tuple: join.Tuple{Seq: 1}}))
		e, gen := shared(2)
		holder.handleBatch(e) // link 0's marker is in: held aside
		done := make(chan struct{})
		go func() {
			reader.handleBatch(e)
			close(done)
		}()
		<-done
		intact(t, e, gen, "after the other joiner's release")
		holder.handleBatch(ctrlEnv(message{kind: kCkpt, from: 1, tuple: join.Tuple{Seq: 1}}))
		recycledOnce(t, e, gen)
		for _, w := range op.joiners {
			if n := w.met.InputTuples.Load(); n != int64(len(tuples)) {
				t.Fatalf("joiner %d ran %d tuples, want %d", w.id, n, len(tuples))
			}
		}
	})

	t.Run("stop", func(t *testing.T) {
		stop := make(chan struct{})
		tp := &topology{met: metrics.NewOperator(2), stop: stop}
		ports := []*joinerPorts{newJoinerPorts(1, 1), {dataIn: make(chan *envelope)}}
		tp.add(ports)
		e, gen := shared(2)
		tp.pushData(0, e)
		close(stop)
		tp.pushData(1, e) // joiner 1 never reads: the stop branch drops it
		intact(t, e, gen, "after the stop branch")
		done := make(chan struct{})
		go func() {
			(<-ports[0].dataIn).release()
			close(done)
		}()
		<-done
		recycledOnce(t, e, gen)
	})
}

// TestRemoteEnvelopeOneFramePerWorker: on a J=16 (4,4) grid with one
// joiner in this process, the rest of rows 0–1 on worker A and rows 2–3
// on worker B, a flushed R row that lives on A crosses A's link as one
// frame naming its four joiners, and an S column spanning all three
// processes goes to the local joiner by pointer and crosses each worker
// link once, naming that worker's joiners. Each envelope returns to the
// pool exactly once: on the coordinator after the last peer encoded it
// and the local joiner released it, on a worker after every joiner the
// frame named released the one decoded envelope. The references are
// released on different goroutines, so run it under -race.
func TestRemoteEnvelopeOneFramePerWorker(t *testing.T) {
	mp := matrix.Mapping{N: 4, M: 4}
	cfg := Config{J: 16, Pred: join.EquiJoin("eq", nil), Initial: mp, BatchSize: 8}
	op := mustOperator(t, cfg)
	table := op.ctl.table
	// place maps a joiner id to its worker, -1 for the local joiner.
	place := make([]int, cfg.J)
	for i, id := range table {
		switch {
		case i == 0:
			place[id] = -1
		case i < 2*mp.M:
			place[id] = 0
		default:
			place[id] = 1
		}
	}
	var far [2]transport.Link
	op.topo.remote = make([]*remotePeer, cfg.J)
	for w := range far {
		near, f := transport.Pipe()
		far[w] = f
		p := newRemotePeer(fmt.Sprintf("worker-%d", w), near, op.stop, func(err error) { t.Error(err) })
		p.idx = w
		defer near.Close()
		for id, pw := range place {
			if pw == w {
				op.topo.remote[id] = p
			}
		}
	}

	// One R tuple for row 1 and one S tuple for column 0.
	rng := rand.New(rand.NewSource(1))
	tuple := func(rel matrix.Side, seq uint64) join.Tuple {
		for {
			u := rng.Uint64() | 1
			if (rel == matrix.SideR && mp.RowOf(u) == 1) || (rel == matrix.SideS && mp.ColOf(u) == 0) {
				return join.Tuple{Rel: rel, Key: 7, Seq: seq, U: u, Payload: []byte{byte(seq)}}
			}
		}
	}
	rt, st := tuple(matrix.SideR, 1), tuple(matrix.SideS, 2)
	r := handReshuffler(op)
	r.routeBatch([]join.Tuple{rt, st})
	rowEnv, colEnv := r.out[1], r.out[mp.N]
	rowGen, colGen := rowEnv.recycled, colEnv.recycled
	r.flushAll(&op.met.BatchFlushIdle)
	if n := rowEnv.recycled - rowGen; n != 1 {
		t.Fatalf("row envelope returned to the pool %d times once its one peer encoded it, want 1", n)
	}
	if colEnv.recycled != colGen || len(colEnv.tuples) != 1 {
		t.Fatalf("column envelope recycled %d times with %d tuples while the local joiner holds it, want untouched",
			colEnv.recycled-colGen, len(colEnv.tuples))
	}
	localIn := (*op.topo.ports.Load())[table[0]].dataIn
	released := make(chan *envelope)
	go func() {
		e := <-localIn
		e.release()
		released <- e
	}()
	if e := <-released; e != colEnv {
		t.Fatal("the local joiner received another envelope than the column's")
	}
	if n := colEnv.recycled - colGen; n != 1 {
		t.Fatalf("column envelope returned to the pool %d times after its last release, want 1", n)
	}

	// What each worker must receive: A the row and its joiner of the
	// column, B its two joiners of the column.
	want := [2][]struct {
		dests []int
		tuple join.Tuple
	}{
		{{table[mp.M : 2*mp.M], rt}, {[]int{table[mp.M]}, st}},
		{{[]int{table[2*mp.M], table[3*mp.M]}, st}},
	}
	for w, link := range far {
		link.Close() // the frames already sent still drain
		hosted := make([]bool, cfg.J)
		for id, pw := range place {
			hosted[id] = pw == w
		}
		wcfg := cfg
		wcfg.hosted = hosted
		wop := mustOperator(t, wcfg)
		ports := *wop.topo.ports.Load()
		for i := 0; ; i++ {
			f, err := link.Recv()
			if err == io.EOF {
				if i != len(want[w]) {
					t.Fatalf("worker %d: %d frames, want %d", w, i, len(want[w]))
				}
				break
			}
			if err != nil || f.Kind != transport.KindData || i >= len(want[w]) {
				t.Fatalf("worker %d frame %d: kind %v, err %v; want %d data frames", w, i, f.Kind, err, len(want[w]))
			}
			dests, err := wop.fanOut(nil, f.Payload)
			if err != nil {
				t.Fatalf("worker %d frame %d: %v", w, i, err)
			}
			if !slices.Equal(dests, want[w][i].dests) {
				t.Fatalf("worker %d frame %d names joiners %v, want %v", w, i, dests, want[w][i].dests)
			}
			var envs []*envelope
			for _, id := range dests {
				envs = append(envs, <-ports[id].dataIn)
			}
			e, gen := envs[0], envs[0].recycled
			if len(e.tuples) != 1 || !sameTuple(e.tuples[0], want[w][i].tuple) {
				t.Fatalf("worker %d frame %d decoded %+v, want %+v", w, i, e.tuples, want[w][i].tuple)
			}
			// Every joiner but the first releases on its own goroutine;
			// the envelope must survive until the first one does too.
			var wg sync.WaitGroup
			for j, got := range envs {
				if got != e {
					t.Fatalf("worker %d frame %d: joiner %d got another envelope than joiner %d", w, i, dests[j], dests[0])
				}
				if j == 0 {
					continue
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					got.release()
				}()
			}
			wg.Wait()
			if e.recycled != gen || len(e.tuples) != 1 {
				t.Fatalf("worker %d frame %d: envelope recycled %d times with %d tuples while joiner %d holds it, want untouched",
					w, i, e.recycled-gen, len(e.tuples), dests[0])
			}
			e.release()
			if n := e.recycled - gen; n != 1 {
				t.Fatalf("worker %d frame %d: decoded envelope returned to the pool %d times, want 1", w, i, n)
			}
		}
		// A frame naming a joiner this worker does not host is rejected.
		split := appendData(nil, []int{table[mp.M], table[3*mp.M]}, &envelope{hdr: message{kind: kTuple}})
		if _, err := wop.fanOut(nil, split); err == nil {
			t.Fatalf("worker %d accepted an envelope for a joiner hosted elsewhere", w)
		}
		for id, p := range ports {
			if n := len(p.dataIn); n != 0 {
				t.Fatalf("worker %d: joiner %d holds %d more envelopes, want none", w, id, n)
			}
		}
	}
}
