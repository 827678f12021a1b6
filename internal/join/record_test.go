package join

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// recordCase is one row population of the column record tests: its
// tuples, whether the encoder is told every u is derived, and the bytes
// a row takes (payload bytes aside), which say which columns the
// record carries.
type recordCase struct {
	name    string
	derived bool
	row     int
	tuple   func(rng *rand.Rand, i int) Tuple
}

func recordCases() []recordCase {
	plain := func(_ *rand.Rand, i int) Tuple {
		return Tuple{Rel: matrix.SideS, Key: int64(i*7919) % 61, Aux: int64(i), Seq: uint64(i + 1), Size: 8}
	}
	derived := func(rng *rand.Rand, i int) Tuple {
		tp := plain(rng, i)
		tp.U = UMix(layoutSeed, tp.Seq)
		return tp
	}
	return []recordCase{
		{"u-zero", false, 24, plain},
		{"derived", true, 24, derived},
		{"derived-untold", false, 32, derived},
		{"caller-U", false, 32, func(rng *rand.Rand, i int) Tuple {
			tp := plain(rng, i)
			tp.U = rng.Uint64()
			return tp
		}},
		{"mixed-size", true, 32, func(rng *rand.Rand, i int) Tuple {
			tp := derived(rng, i)
			tp.Size = int32(i % 3 * 4)
			return tp
		}},
		{"sides", true, 32, func(rng *rand.Rand, i int) Tuple {
			tp := derived(rng, i)
			tp.Rel = matrix.Side(i & 1)
			return tp
		}},
		{"dummies", false, 40, func(rng *rand.Rand, i int) Tuple {
			tp := derived(rng, i)
			if i%17 == 3 {
				// A reshuffler's padding: Seq 0, a drawn u.
				tp.Dummy, tp.Seq, tp.U = true, 0, rng.Uint64()
			}
			return tp
		}},
		{"payloads", true, 28, func(rng *rand.Rand, i int) Tuple {
			tp := derived(rng, i)
			switch i % 3 {
			case 1:
				tp.Payload = []byte{}
			case 2:
				tp.Payload = []byte{byte(i), byte(i >> 8), 0x5a}
			}
			return tp
		}},
	}
}

// sameRow requires got to be want, every field equal and a nil payload
// apart from an empty one.
func sameRow(t *testing.T, label string, got, want Tuple) {
	t.Helper()
	if got.Key != want.Key || got.Aux != want.Aux || got.U != want.U || got.Seq != want.Seq ||
		got.Size != want.Size || got.Rel != want.Rel || got.Dummy != want.Dummy ||
		(got.Payload == nil) != (want.Payload == nil) || !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("%s: got %+v, want %+v", label, got, want)
	}
}

// TestColumnRecordRoundTrip encodes runs of every row population —
// empty, one row, a few and a full block — behind other bytes, and
// requires each to take 13 header bytes and the row bytes its columns
// call for, to decode after the rows already in dst into exactly the
// run with copied payloads, and to write through a line writer, under
// the header's rule, rows that read back as the run.
func TestColumnRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for _, rc := range recordCases() {
		for _, n := range []int{0, 1, 7, WindowRows} {
			label := fmt.Sprintf("%s/%d", rc.name, n)
			run := make([]Tuple, n)
			extra := 0
			for i := range run {
				run[i] = rc.tuple(rng, i)
				extra += len(run[i].Payload)
			}
			prefix := []byte{0xAA, 0xBB}
			buf := AppendColumnRecord(append([]byte(nil), prefix...), run, rc.derived)
			// (One row's columns depend on which row it is.)
			if got, want := len(buf)-len(prefix), recHeader+rc.row*n+extra; n != 1 && got != want {
				t.Fatalf("%s: record of %d bytes, want %d", label, got, want)
			}
			data := append(buf[len(prefix):], 0xCC) // a byte that is not the record's
			dst := []Tuple{{Key: -1}}
			rec, got, err := ReadColumnRecord(data, layoutSeed, dst)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if rec.Len() != n || rec.Size() != len(data)-1 || len(got) != n+1 || got[0].Key != -1 {
				t.Fatalf("%s: %d rows in %d bytes onto %d tuples, want %d in %d onto 1", label, rec.Len(), rec.Size(), len(got)-n, n, len(data)-1)
			}
			var bytesSum int64
			for i := range run {
				sameRow(t, fmt.Sprintf("%s row %d", label, i), got[1+i], run[i])
				bytesSum += run[i].Bytes()
			}
			if rec.Bytes() != bytesSum {
				t.Fatalf("%s: record accounts %d bytes, rows %d", label, rec.Bytes(), bytesSum)
			}
			clear(data) // nothing decoded may alias the record
			var w BlockWriter
			w.Reset(2, false, layoutSeed)
			win, rest := w.AppendRecord(got[1:], rec)
			if win.Len()+rest.Len() != n {
				t.Fatalf("%s: windows of %d and %d rows, want %d", label, win.Len(), rest.Len(), n)
			}
			i := 0
			for _, v := range []Window{win, rest} {
				for pos := v.lo; pos < v.hi; pos++ {
					sameRow(t, fmt.Sprintf("%s stored row %d", label, i), v.c.at(pos), run[i])
					i++
				}
			}
		}
	}
}

// TestColumnRecordRejectsCorruption cuts a record at every byte and
// sets a flag bit no encoder writes, both a u rule and a u column, a
// meta word bit no tuple sets in the header and in the meta column,
// and a row count past what the columns hold: each must be an error.
func TestColumnRecordRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := recordCases()
	var run []Tuple
	for i := 0; i < 9; i++ {
		tp := cases[len(cases)-2].tuple(rng, i) // dummies: u and meta columns
		if i%2 == 0 {
			tp.Payload = []byte{byte(i), 1, 2}
		}
		run = append(run, tp)
	}
	rec := AppendColumnRecord(nil, run, false)
	if rec[4] != recUCol|recMetaCol|recPayloadCol {
		t.Fatalf("flags %#x, want the u, meta and payload columns", rec[4])
	}
	bad := func(what string, data []byte) {
		t.Helper()
		if _, got, err := ReadColumnRecord(data, 1, nil); err == nil || len(got) != 0 {
			t.Fatalf("%s: decoded %d rows, %v; want an error", what, len(got), err)
		}
	}
	for cut := 0; cut < len(rec); cut++ {
		bad(fmt.Sprintf("cut=%d", cut), rec[:cut])
	}
	mutate := func(f func(c []byte)) []byte {
		c := append([]byte(nil), rec...)
		f(c)
		return c
	}
	for _, flip := range []byte{1 << 4, 1 << 6, 1 << 7, recDerived} {
		bad(fmt.Sprintf("flags ^ %#x", flip), mutate(func(c []byte) { c[4] ^= flip }))
	}
	bad("header meta bit 34", mutate(func(c []byte) { c[5+4] |= 1 << 2 }))
	metaCol := recHeader + 32*len(run)
	bad("row meta bit 63", mutate(func(c []byte) { c[metaCol+8*3+7] |= 1 << 7 }))
	for _, rows := range []uint32{10, 1 << 20, 0xffffffff} {
		bad(fmt.Sprintf("rows %d", rows), mutate(func(c []byte) {
			c[0], c[1], c[2], c[3] = byte(rows), byte(rows>>8), byte(rows>>16), byte(rows>>24)
		}))
	}
}

// FuzzColumnRecord feeds ReadColumnRecord arbitrary bytes: a worker
// data frame's body. It must return an error or rows, never panic, and
// rows it returns must survive their own encoding unchanged and read
// back as themselves from a line writer's block written under the
// header's rule.
func FuzzColumnRecord(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for _, rc := range recordCases() {
		run := make([]Tuple, 1+rng.Intn(40))
		for i := range run {
			run[i] = rc.tuple(rng, i)
		}
		f.Add(AppendColumnRecord(nil, run, rc.derived))
	}
	f.Add(AppendColumnRecord(nil, nil, false))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, got, err := ReadColumnRecord(data, layoutSeed, nil)
		if err != nil {
			return
		}
		if len(got) != rec.Len() || rec.Size() > len(data) {
			t.Fatalf("%d rows, header says %d, in %d of %d bytes", len(got), rec.Len(), rec.Size(), len(data))
		}
		rec2, again, err := ReadColumnRecord(AppendColumnRecord(nil, got, false), layoutSeed, nil)
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v", err)
		}
		if rec2.Bytes() != rec.Bytes() || len(again) != len(got) {
			t.Fatalf("record changed across a re-encoding: %d rows of %d bytes, then %d of %d", len(got), rec.Bytes(), len(again), rec2.Bytes())
		}
		for i := range got {
			sameRow(t, fmt.Sprintf("re-encoded row %d", i), again[i], got[i])
		}
		if len(got) > WindowRows {
			return
		}
		var w BlockWriter
		w.Reset(1, false, layoutSeed)
		win, rest := w.AppendRecord(got, rec)
		i := 0
		for _, v := range []Window{win, rest} {
			for pos := v.lo; pos < v.hi; pos++ {
				sameRow(t, fmt.Sprintf("stored row %d", i), v.c.at(pos), got[i])
				i++
			}
		}
		if i != len(got) {
			t.Fatalf("stored %d rows of %d", i, len(got))
		}
	})
}
