package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/join"
)

// The frame decoders face bytes from another process. Each fuzz target
// holds one property: the decoder returns an error or a value, never
// panics, and a value it accepts survives its own encoder unchanged.
// The seed corpus — encodings from the round-trip tests' generators
// plus a few hand-cut edge cases — runs with every go test;
// go test -fuzz=FuzzDecodeData (and so on) explores further.

func FuzzDecodeData(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 8; round++ {
		dests := make([]int, 1+round)
		for i := range dests {
			dests[i] = rng.Intn(256)
		}
		e := randomEnvelope(rng)
		f.Add(appendData(nil, dests, e))
		e.refs.Store(1)
		e.release()
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, payload []byte) {
		dests, e, err := decodeData(nil, payload)
		if err != nil {
			return
		}
		if len(dests) == 0 || e.refs.Load() != 1 {
			t.Fatalf("accepted %d destinations, %d references", len(dests), e.refs.Load())
		}
		again, e2, err := decodeData(nil, appendData(nil, dests, e))
		if err != nil {
			t.Fatalf("re-encoded envelope rejected: %v", err)
		}
		if !slices.Equal(again, dests) || !sameMessage(e2.hdr, e.hdr) || len(e2.tuples) != len(e.tuples) {
			t.Fatalf("envelope changed across a re-encoding: %+v vs %+v", e2.hdr, e.hdr)
		}
		for i := range e.tuples {
			if !sameTuple(e2.tuples[i], e.tuples[i]) {
				t.Fatalf("tuple %d changed across a re-encoding", i)
			}
		}
		e.release()
		e2.release()
	})
}

func FuzzDecodeMig(f *testing.F) {
	rng := rand.New(rand.NewSource(4))
	for round := 0; round < 8; round++ {
		m := randomMessage(rng)
		f.Add(appendMig(nil, rng.Intn(64), &m))
	}
	f.Add([]byte{})
	f.Add(make([]byte, 4+msgWireHeader))
	f.Fuzz(func(t *testing.T, payload []byte) {
		dest, m, err := decodeMig(payload)
		if err != nil {
			return
		}
		d2, m2, err := decodeMig(appendMig(nil, dest, &m))
		if err != nil || d2 != dest || !sameMessage(m2, m) {
			t.Fatalf("migration message %+v changed across a re-encoding: %d, %+v, %v", m, d2, m2, err)
		}
	})
}

func FuzzDecodePairs(f *testing.F) {
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 8; round++ {
		pairs := make([]join.Pair, rng.Intn(6))
		for i := range pairs {
			pairs[i] = join.Pair{R: randomWireTuple(rng), S: randomWireTuple(rng)}
		}
		f.Add(appendPairs(nil, rng.Intn(64), pairs))
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, payload []byte) {
		id, ps, err := decodePairsInto(nil, payload)
		if err != nil {
			return
		}
		id2, ps2, err := decodePairsInto(nil, appendPairs(nil, id, ps))
		if err != nil || id2 != id || len(ps2) != len(ps) {
			t.Fatalf("pairs changed across a re-encoding: id %d→%d, %d→%d pairs, %v", id, id2, len(ps), len(ps2), err)
		}
		for i := range ps {
			if !sameTuple(ps2[i].R, ps[i].R) || !sameTuple(ps2[i].S, ps[i].S) {
				t.Fatalf("pair %d changed across a re-encoding", i)
			}
		}
	})
}

func FuzzDecodeHello(f *testing.F) {
	f.Add(encodeHello(helloMsg{
		J: 8, NumRe: 2, Ids: []int{2, 3, 4}, PredKind: uint8(join.Band), PredWidth: 5,
		PredName: "band5", Seed: 42, InitialN: 2, InitialM: 4, BatchSize: 128,
		DataQueueCap: 16, CapBytes: 1 << 20,
	}))
	f.Add(encodeHello(helloMsg{J: 1 << 40, NumRe: 1, Ids: []int{0}}))
	f.Add(encodeHello(helloMsg{J: 8, NumRe: 1 << 30, Ids: []int{0}, DataQueueCap: 1 << 40}))
	f.Add([]byte(`{"J":8,"NumRe":1,"Ids":[0],"RetiredKnob":256}`))
	f.Add([]byte("{not json"))
	f.Fuzz(func(t *testing.T, payload []byte) {
		h, err := decodeHello(payload)
		if err != nil {
			return
		}
		if err := checkWorkerBounds(h.J, h.NumRe, h.BatchSize, h.DataQueueCap); err != nil {
			t.Fatalf("accepted hello out of bounds: %v", err)
		}
		if len(h.Ids) == 0 {
			t.Fatal("accepted hello hosts no joiners")
		}
		for _, id := range h.Ids {
			if id < 0 || id >= h.J {
				t.Fatalf("accepted hello hosts joiner %d of J=%d", id, h.J)
			}
		}
	})
}
