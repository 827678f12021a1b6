package core

import (
	"math/rand"
	"testing"

	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// TestProbeOnlyEnvelopeWaitsForOlderStored: grouped mode's ownership
// guard keeps a probe-only tuple's match only when the stored partner is
// older, so an older stored tuple must reach a joiner before a newer
// probe-only tuple of the other relation. Stored S tuples wait in both
// columns' envelopes while newer probe-only R tuples fill row 0's; the
// full flush must ship the columns first, so on the link of every
// joiner of row 0 — each intersects one column — the S envelope arrives
// before the R one.
func TestProbeOnlyEnvelopeWaitsForOlderStored(t *testing.T) {
	const batch = 4
	mp := matrix.Mapping{N: 2, M: 2}
	op := mustOperator(t, Config{J: 4, Pred: join.EquiJoin("eq", nil), Initial: mp, BatchSize: batch})
	rng := rand.New(rand.NewSource(1))
	r := handReshuffler(op)
	seq := uint64(0)
	// next returns a tuple of rel routed to row (R) or column (S) part.
	next := func(rel matrix.Side, part int, probeOnly bool) sourceItem {
		seq++
		for {
			u := rng.Uint64()
			if (rel == matrix.SideR && mp.RowOf(u) == part) || (rel == matrix.SideS && mp.ColOf(u) == part) {
				return sourceItem{t: join.Tuple{Rel: rel, Key: 7, Seq: seq, U: u | 1}, probeOnly: probeOnly}
			}
		}
	}
	r.routeBatch([]sourceItem{next(matrix.SideS, 0, false), next(matrix.SideS, 1, false)})
	var probes []sourceItem
	for i := 0; i < batch; i++ {
		probes = append(probes, next(matrix.SideR, 0, true))
	}
	r.routeBatch(probes)

	for row := 0; row < mp.N; row++ {
		for col := 0; col < mp.M; col++ {
			id := op.ctl.table[row*mp.M+col]
			in := op.joiners[id].dataIn
			first := <-in
			if first.hdr.probeOnly || first.tuples[0].Rel != matrix.SideS {
				t.Fatalf("joiner %d (row %d): first envelope carries %v probe-only=%v, want the stored S tuple",
					id, row, first.tuples[0].Rel, first.hdr.probeOnly)
			}
			if row == 0 {
				second := <-in
				if !second.hdr.probeOnly || second.tuples[0].Rel != matrix.SideR || len(second.tuples) != batch {
					t.Fatalf("joiner %d: second envelope %v probe-only=%v with %d tuples, want the full probe-only R row",
						id, second.tuples[0].Rel, second.hdr.probeOnly, len(second.tuples))
				}
			}
			if n := len(in); n != 0 {
				t.Fatalf("joiner %d (row %d): %d more envelopes, want none", id, row, n)
			}
		}
	}
}

// TestEnvelopeLifetime: an envelope shipped to several joiners returns
// to the pool exactly once, after the last destination releases it —
// whether that reference was held aside at a checkpoint barrier and
// replayed later, dropped by pushData's stop branch, or encoded onto a
// worker link. The references are released on different goroutines, so
// run it under -race.
func TestEnvelopeLifetime(t *testing.T) {
	tuples := []join.Tuple{
		{Rel: matrix.SideR, Key: 1, Seq: 1, U: 1, Payload: []byte("r1")},
		{Rel: matrix.SideR, Key: 2, Seq: 2, U: 1},
	}
	// shared builds a data envelope from link 0 holding refs references.
	shared := func(refs int32) (*envelope, uint32) {
		e := dataEnv(0, false, tuples...)
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

	t.Run("remote", func(t *testing.T) {
		stop := make(chan struct{})
		tp := &topology{met: metrics.NewOperator(2), stop: stop}
		ports := []*joinerPorts{newJoinerPorts(4, 1), newJoinerPorts(4, 1)}
		tp.add(ports)
		local, worker := transport.Pipe()
		defer local.Close()
		tp.remote = []*remotePeer{nil, newRemotePeer("worker", local, stop, func(err error) { t.Error(err) })}
		decoded := make(chan *envelope, 1)
		go func() {
			f, err := worker.Recv()
			if err != nil {
				t.Error(err)
				close(decoded)
				return
			}
			_, de, err := decodeData(f.Payload)
			if err != nil {
				t.Error(err)
			}
			decoded <- de
		}()
		e, gen := shared(2)
		tp.pushData(1, e)
		tp.pushData(0, e)
		de := <-decoded
		if de == nil || len(de.tuples) != len(tuples) || !sameTuple(de.tuples[0], tuples[0]) || !sameTuple(de.tuples[1], tuples[1]) {
			t.Fatalf("worker decoded %+v, want %+v", de, tuples)
		}
		de.release()
		done := make(chan struct{})
		go func() {
			(<-ports[0].dataIn).release()
			close(done)
		}()
		<-done
		recycledOnce(t, e, gen)
	})
}
