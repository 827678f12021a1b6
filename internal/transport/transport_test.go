package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"testing"
	"time"
)

// randomFrame builds a frame with a random valid kind and a random
// payload: empty, tiny, or up to a few KB of random bytes.
func randomFrame(rng *rand.Rand) Frame {
	kind := Kind(1 + rng.Intn(int(kindEnd)-1))
	var payload []byte
	switch rng.Intn(4) {
	case 0: // empty
	case 1:
		payload = make([]byte, 1+rng.Intn(16))
	default:
		payload = make([]byte, rng.Intn(4096))
	}
	rng.Read(payload)
	return Frame{Kind: kind, Payload: payload}
}

// TestFrameRoundTripProperty encodes a stream of random frames —
// including empty payloads — and requires the reader to return them
// bit-for-bit in order, with a clean io.EOF at the end.
func TestFrameRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	frames := make([]Frame, 200)
	var buf []byte
	for i := range frames {
		frames[i] = randomFrame(rng)
		buf = AppendFrame(buf, frames[i])
	}
	r := bytes.NewReader(buf)
	for i, want := range frames {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Kind != want.Kind || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got kind=%v len=%d, want kind=%v len=%d",
				i, got.Kind, len(got.Payload), want.Kind, len(want.Payload))
		}
	}
	if _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("after last frame: got %v, want io.EOF", err)
	}
}

// TestFrameTruncation cuts an encoded frame at every possible byte
// boundary. A cut at offset zero is a clean end of stream; any other
// cut must surface as ErrBadFrame, never a misparse or a hang.
func TestFrameTruncation(t *testing.T) {
	payload := make([]byte, 64)
	rand.New(rand.NewSource(11)).Read(payload)
	enc := AppendFrame(nil, Frame{Kind: KindData, Payload: payload})
	for cut := 0; cut < len(enc); cut++ {
		_, err := ReadFrame(bytes.NewReader(enc[:cut]))
		if cut == 0 {
			if err != io.EOF {
				t.Fatalf("cut=0: got %v, want io.EOF", err)
			}
			continue
		}
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("cut=%d: got %v, want ErrBadFrame", cut, err)
		}
	}
}

// TestFrameBitFlip flips every bit of every byte of an encoded frame
// and classifies the reader's reaction by the corrupted field. Nothing
// may panic, and no flip outside the ignored reserved byte may produce
// the original frame back.
func TestFrameBitFlip(t *testing.T) {
	payload := make([]byte, 48)
	rand.New(rand.NewSource(13)).Read(payload)
	orig := Frame{Kind: KindMig, Payload: payload}
	enc := AppendFrame(nil, orig)
	for i := range enc {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), enc...)
			mut[i] ^= 1 << bit
			got, err := ReadFrame(bytes.NewReader(mut))
			switch {
			case i < 3: // magic
				if !errors.Is(err, ErrBadFrame) {
					t.Fatalf("byte %d bit %d (magic): got %v, want ErrBadFrame", i, bit, err)
				}
			case i == 3: // version
				if !errors.Is(err, ErrVersionSkew) {
					t.Fatalf("byte %d bit %d (version): got %v, want ErrVersionSkew", i, bit, err)
				}
			case i == 4: // kind: another valid kind decodes, the rest reject
				if err == nil {
					if got.Kind == orig.Kind {
						t.Fatalf("byte %d bit %d (kind): flip decoded as the original kind", i, bit)
					}
				} else if !errors.Is(err, ErrBadFrame) {
					t.Fatalf("byte %d bit %d (kind): got %v, want ErrBadFrame or another kind", i, bit, err)
				}
			case i == 5: // reserved: ignored by this revision
				if err != nil || got.Kind != orig.Kind || !bytes.Equal(got.Payload, orig.Payload) {
					t.Fatalf("byte %d bit %d (reserved): got %v, want clean decode", i, bit, err)
				}
			default: // length, CRC, payload: checksum must catch all of it
				if !errors.Is(err, ErrBadFrame) {
					t.Fatalf("byte %d bit %d: got %v, want ErrBadFrame", i, bit, err)
				}
			}
		}
	}
}

// TestFrameVersionSkew hand-builds a frame from a future protocol
// revision: the reader must reject it with ErrVersionSkew — a clean
// typed error, not a panic and not ErrBadFrame (the magic matched, the
// peer is just newer).
func TestFrameVersionSkew(t *testing.T) {
	enc := AppendFrame(nil, Frame{Kind: KindHello, Payload: []byte("job")})
	enc[3] = Version + 1
	_, err := ReadFrame(bytes.NewReader(enc))
	if !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("got %v, want ErrVersionSkew", err)
	}
	if errors.Is(err, ErrBadFrame) {
		t.Fatalf("version skew misclassified as bad frame: %v", err)
	}
}

// TestFrameVersion2Refused hand-builds a data frame as a version-2
// peer sends it, its body a tuple count and per-tuple records: this
// build must refuse it with ErrVersionSkew instead of handing the
// payload to a column record decoder, read alone and off a TCP link,
// whose receive path reads data payloads into recycled buffers.
func TestFrameVersion2Refused(t *testing.T) {
	if Version != 3 {
		t.Fatalf("Version = %d; this test pins the step from 2 to 3", Version)
	}
	enc := AppendFrame(nil, Frame{Kind: KindData, Payload: []byte{1, 0, 0, 0, 0, 0, 0, 0}})
	enc[3] = 2
	_, err := ReadFrame(bytes.NewReader(enc))
	if !errors.Is(err, ErrVersionSkew) || errors.Is(err, ErrBadFrame) {
		t.Fatalf("version-2 frame: got %v, want ErrVersionSkew", err)
	}
	peer, link := tcpPair(t)
	defer peer.Close()
	defer link.Close()
	if err := peer.(*tcpLink).sendRaw(enc); err != nil {
		t.Fatal(err)
	}
	if _, err := link.Recv(); !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("version-2 frame over TCP: got %v, want ErrVersionSkew", err)
	}
}

// TestFrameBadKind covers the kind bounds: zero (a zeroed buffer must
// never parse) and the first value past the last defined kind.
func TestFrameBadKind(t *testing.T) {
	for _, k := range []Kind{0, kindEnd} {
		enc := AppendFrame(nil, Frame{Kind: k, Payload: []byte("x")})
		if _, err := ReadFrame(bytes.NewReader(enc)); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("kind %d: got %v, want ErrBadFrame", k, err)
		}
	}
}

// TestFrameOversizedLength corrupts the length field past
// MaxFramePayload; the reader must reject before attempting the
// allocation.
func TestFrameOversizedLength(t *testing.T) {
	enc := AppendFrame(nil, Frame{Kind: KindData, Payload: []byte("abc")})
	enc[6], enc[7], enc[8], enc[9] = 0xff, 0xff, 0xff, 0xff
	if _, err := ReadFrame(bytes.NewReader(enc)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("got %v, want ErrBadFrame", err)
	}
}

// TestFrameLargePayloads round-trips payloads around and past the
// first payload piece, which ReadFrame reads in growing pieces and
// joins, and cuts each one short: a cut anywhere in the pieces must
// surface as ErrBadFrame.
func TestFrameLargePayloads(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{payloadPiece - 1, payloadPiece, payloadPiece + 1, 2*payloadPiece + 3, 7<<20 + 5} {
		payload := make([]byte, n)
		rng.Read(payload)
		enc := AppendFrame(nil, Frame{Kind: KindMig, Payload: payload})
		got, err := ReadFrame(bytes.NewReader(enc))
		if err != nil || got.Kind != KindMig || !bytes.Equal(got.Payload, payload) {
			t.Fatalf("%d-byte payload: kind %v, %d bytes, err %v", n, got.Kind, len(got.Payload), err)
		}
		for _, cut := range []int{headerSize + 1, headerSize + payloadPiece, len(enc) - 1} {
			if cut >= len(enc) {
				continue
			}
			if _, err := ReadFrame(bytes.NewReader(enc[:cut])); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("%d-byte payload cut at %d: got %v, want ErrBadFrame", n, cut, err)
			}
		}
	}
}

// exchange pushes frames both ways across a link pair and checks them.
func exchange(t *testing.T, a, b Link) {
	t.Helper()
	want := Frame{Kind: KindData, Payload: []byte("hello from a")}
	if err := a.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != want.Kind || !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("b got %v %q", got.Kind, got.Payload)
	}
	want = Frame{Kind: KindAck, Payload: []byte{1, 2, 3, 4}}
	if err := b.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err = a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != want.Kind || !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("a got %v %q", got.Kind, got.Payload)
	}
}

func TestPipeLink(t *testing.T) {
	a, b := Pipe()
	exchange(t, a, b)

	// Frames queued before a close must still drain...
	if err := a.Send(Frame{Kind: KindDone}); err != nil {
		t.Fatal(err)
	}
	a.Close()
	got, err := b.Recv()
	if err != nil || got.Kind != KindDone {
		t.Fatalf("post-close drain: %v %v", got.Kind, err)
	}
	// ...then the peer sees a clean end of stream, and sends fail typed.
	if _, err := b.Recv(); err != io.EOF {
		t.Fatalf("drained pipe: got %v, want io.EOF", err)
	}
	if err := b.Send(Frame{Kind: KindData}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send on closed pipe: got %v, want ErrClosed", err)
	}
}

// tcpPair builds a connected TCP link pair over loopback.
func tcpPair(t testing.TB) (client, server Link) {
	t.Helper()
	lis, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	accepted := make(chan Link, 1)
	errc := make(chan error, 1)
	go func() {
		l, err := lis.Accept()
		if err != nil {
			errc <- err
			return
		}
		accepted <- l
	}()
	client, err = Dial(lis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case server = <-accepted:
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		t.Fatal("accept timed out")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func TestTCPLink(t *testing.T) {
	client, server := tcpPair(t)
	exchange(t, client, server)

	// Peer close surfaces as a clean EOF at a frame boundary; a Recv
	// interrupted by closing our own side reports ErrClosed.
	client.Close()
	if _, err := server.Recv(); err != io.EOF && !errors.Is(err, ErrBadFrame) {
		t.Fatalf("recv after peer close: got %v, want io.EOF", err)
	}
	if err := client.Send(Frame{Kind: KindData}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send on closed link: got %v, want ErrClosed", err)
	}
}

// TestTCPRecvRecyclesPayloads: a TCP link reads a data or pairs
// payload into the smallest free buffer that holds it, and any other
// kind into a fresh one; the free list keeps at most freeBufs buffers
// of at most freeBufMax bytes, trading its smallest for a larger one
// when full.
func TestTCPRecvRecyclesPayloads(t *testing.T) {
	freeList.Lock()
	freeList.bufs, freeList.n = [freeBufs][]byte{}, 0
	freeList.Unlock()
	client, server := tcpPair(t)
	rng := rand.New(rand.NewSource(5))
	recv := func(kind Kind, n int) []byte {
		t.Helper()
		want := make([]byte, n)
		rng.Read(want)
		if err := client.Send(Frame{Kind: kind, Payload: want}); err != nil {
			t.Fatal(err)
		}
		got, err := server.Recv()
		if err != nil || got.Kind != kind || !bytes.Equal(got.Payload, want) {
			t.Fatalf("%v frame of %d bytes: got %v, %d bytes, err %v", kind, n, got.Kind, len(got.Payload), err)
		}
		return got.Payload
	}
	same := func(a, b []byte) bool { return &a[:1][0] == &b[:1][0] }

	small, large := recv(KindData, 600), recv(KindPairs, 3000)
	Recycle(large)
	Recycle(small)
	if p := recv(KindPairs, 500); !same(p, small) {
		t.Fatal("a 500-byte pairs payload did not take the smallest free buffer that holds it")
	} else {
		Recycle(p)
	}
	if p := recv(KindData, 2000); !same(p, large) {
		t.Fatal("a 2000-byte data payload did not take the one free buffer that holds it")
	}
	if p := recv(KindMig, 100); same(p, small) {
		t.Fatal("a migration payload was read into a free buffer")
	}
	if p := recv(KindData, 700); same(p, small) || cap(p) != 700 {
		t.Fatalf("a 700-byte payload with no free buffer that holds it got capacity %d, want a fresh 700", cap(p))
	}

	Recycle(make([]byte, freeBufMax+1))
	for i := 1; i < freeBufs; i++ {
		Recycle(make([]byte, 1000+i))
	}
	Recycle(make([]byte, 5000))
	freeList.Lock()
	n, caps := freeList.n, make([]int, 0, freeBufs)
	for _, b := range freeList.bufs[:freeList.n] {
		caps = append(caps, cap(b))
	}
	freeList.Unlock()
	if n != freeBufs || slices.Contains(caps, 600) || !slices.Contains(caps, 5000) || slices.Contains(caps, freeBufMax+1) {
		t.Fatalf("free list after overfilling holds capacities %v", caps)
	}
}

// chaosRate reads the recovery-smoke matrix variable so CI's chaos
// cells reuse it; unset runs a default mid-rate in-process.
func chaosRate(t *testing.T) float64 {
	fr := os.Getenv("SQUALL_SMOKE_FLAKY")
	if fr == "" {
		return 0.2
	}
	r, err := strconv.ParseFloat(fr, 64)
	if err != nil || r < 0 || r > 1 {
		t.Fatalf("SQUALL_SMOKE_FLAKY=%q, want a probability in [0,1]", fr)
	}
	return r
}

// TestLoopbackChaos drives a TCP link through the Loopback fault
// wrapper. Drops and duplicates must change only the delivered count —
// every frame that arrives arrives intact — and a torn (short-written)
// frame must surface at the receiver as ErrBadFrame, never a misparse
// or a hang. A multi-frame SendFrames takes its faults frame by frame,
// and a tear ends it.
func TestLoopbackChaos(t *testing.T) {
	rate := chaosRate(t)

	t.Run("drop-dup-delay", func(t *testing.T) {
		client, server := tcpPair(t)
		lb := NewLoopback(client, LoopbackConfig{
			Seed: 31, Drop: rate, Dup: rate / 2,
			DelayProb: rate / 4, Delay: 100 * time.Microsecond,
		})
		const n = 400
		recvDone := make(chan int, 1)
		go func() {
			count := 0
			for {
				f, err := server.Recv()
				if err != nil {
					recvDone <- count
					return
				}
				if f.Kind != KindData || len(f.Payload) != 32 {
					t.Errorf("corrupt delivery: kind=%v len=%d", f.Kind, len(f.Payload))
				}
				count++
			}
		}()
		payload := make([]byte, 32)
		for i := 0; i < n; i++ {
			payload[0] = byte(i)
			if err := lb.Send(Frame{Kind: KindData, Payload: payload}); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
		}
		lb.Close()
		select {
		case count := <-recvDone:
			sent, dropped, duplicated, _, _ := lb.Counts()
			if int64(count) != sent+duplicated {
				t.Fatalf("delivered %d frames, counters say %d sent + %d duplicated (dropped %d)",
					count, sent, duplicated, dropped)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("receiver hung")
		}
	})

	t.Run("short-write", func(t *testing.T) {
		client, server := tcpPair(t)
		lb := NewLoopback(client, LoopbackConfig{Seed: 37, ShortWrite: 1})
		if err := lb.Send(Frame{Kind: KindMig, Payload: make([]byte, 256)}); err != nil {
			t.Fatal(err)
		}
		if _, _, _, short, _ := lb.Counts(); short != 1 {
			t.Fatalf("short-write did not fire (counter %d)", short)
		}
		// The torn frame only becomes visible as truncation once the
		// sender hangs up, like a process dying mid-write.
		lb.Close()
		errc := make(chan error, 1)
		go func() {
			_, err := server.Recv()
			errc <- err
		}()
		select {
		case err := <-errc:
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("torn frame: got %v, want ErrBadFrame", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("receiver hung on torn frame")
		}
	})
	t.Run("send-frames", func(t *testing.T) {
		client, server := tcpPair(t)
		lb := NewLoopback(client, LoopbackConfig{Seed: 41, Drop: rate, Dup: rate / 2})
		const batches, per = 50, 8
		recvDone := make(chan [batches]int, 1)
		go func() {
			var got [batches]int // frames delivered per batch
			for {
				f, err := server.Recv()
				if err != nil {
					recvDone <- got
					return
				}
				if f.Kind != KindData || len(f.Payload) != 32 || int(f.Payload[0]) >= batches {
					t.Errorf("corrupt delivery: kind=%v len=%d", f.Kind, len(f.Payload))
					continue
				}
				got[f.Payload[0]]++
			}
		}()
		fs := make([]Frame, per)
		for b := 0; b < batches; b++ {
			for i := range fs {
				fs[i] = Frame{Kind: KindData, Payload: make([]byte, 32)}
				fs[i].Payload[0], fs[i].Payload[1] = byte(b), byte(i)
			}
			if err := lb.SendFrames(fs); err != nil {
				t.Fatalf("batch %d: %v", b, err)
			}
		}
		lb.Close()
		var got [batches]int
		select {
		case got = <-recvDone:
		case <-time.After(30 * time.Second):
			t.Fatal("receiver hung")
		}
		sent, dropped, duplicated, _, _ := lb.Counts()
		total, partial := 0, 0
		for _, n := range got {
			total += n
			if n != 0 && n != per {
				partial++
			}
		}
		if int64(total) != sent+duplicated {
			t.Fatalf("delivered %d frames, counters say %d sent + %d duplicated (dropped %d)", total, sent, duplicated, dropped)
		}
		if rate > 0 && rate < 1 && partial == 0 {
			t.Fatalf("no batch lost or gained only some of its frames at fault rate %v: faults must hit single frames", rate)
		}
	})

	t.Run("send-frames-torn", func(t *testing.T) {
		client, server := tcpPair(t)
		lb := NewLoopback(client, LoopbackConfig{Seed: 43, ShortWrite: 0.5})
		fs := make([]Frame, 8)
		for i := range fs {
			fs[i] = Frame{Kind: KindMig, Payload: make([]byte, 64)}
		}
		if err := lb.SendFrames(fs); err != nil {
			t.Fatal(err)
		}
		sent, _, _, short, _ := lb.Counts()
		if short != 1 {
			t.Fatalf("%d torn frames, want exactly 1: a tear ends the batch", short)
		}
		lb.Close()
		errc := make(chan error, 1)
		go func() {
			for i := int64(0); ; i++ {
				f, err := server.Recv()
				if err != nil {
					if i != sent {
						err = fmt.Errorf("%d intact frames before the tear, want %d: %w", i, sent, err)
					}
					errc <- err
					return
				}
				if f.Kind != KindMig || len(f.Payload) != 64 {
					errc <- fmt.Errorf("frame %d: kind=%v len=%d", i, f.Kind, len(f.Payload))
					return
				}
			}
		}()
		select {
		case err := <-errc:
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("torn frame in a batch: got %v, want ErrBadFrame", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("receiver hung on torn frame")
		}
	})
}
