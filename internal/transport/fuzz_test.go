package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// FuzzReadFrame feeds ReadFrame arbitrary bytes: what a peer, or a
// corrupted link, may send. It must return io.EOF, a typed error
// (ErrBadFrame, ErrVersionSkew) or a frame that re-encodes to the bytes
// it was read from (but for the reserved header byte) — never panic — and it must never allocate more than
// twice the bytes the stream held plus one payload piece, whatever
// length the header claims.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, Frame{Kind: KindData, Payload: []byte("abc")}))
	f.Add(AppendFrame(nil, Frame{Kind: KindDone}))
	f.Add(AppendFrame(AppendFrame(nil, Frame{Kind: KindAck, Payload: []byte{1, 0, 0, 0}}), Frame{Kind: KindError, Payload: []byte("x")}))
	// Headers claiming far more payload than follows them.
	for _, claim := range []uint32{payloadPiece + 1, 5 << 20, MaxFramePayload} {
		enc := AppendFrame(nil, Frame{Kind: KindData, Payload: bytes.Repeat([]byte{7}, 64)})
		binary.LittleEndian.PutUint32(enc[6:], claim)
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fr, err := ReadFrame(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// The slack covers the error value and anything the fuzzing
		// engine allocates on its own goroutines meanwhile.
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*len(data)+payloadPiece+64<<10); alloc > limit {
			t.Fatalf("read of %d bytes allocated %d, limit %d", len(data), alloc, limit)
		}
		if err != nil {
			if err != io.EOF && !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrVersionSkew) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		// The reserved header byte is written as zero and never read.
		enc := AppendFrame(nil, fr)
		enc[5] = data[5]
		if !bytes.HasPrefix(data, enc) {
			t.Fatalf("frame %v of %d payload bytes does not re-encode to the bytes it was read from", fr.Kind, len(fr.Payload))
		}
	})
}
