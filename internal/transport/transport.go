// Package transport is the network-transparent data plane under the
// distributed operator: a Link/Listener abstraction over the
// reshuffler→joiner and migration edges, with an in-process pipe
// implementation (tests, benchmarks) and a TCP implementation
// (multi-process workers).
//
// Every frame on a link is length-prefixed and CRC'd behind a
// versioned magic, so a truncated stream, a flipped bit, or a peer
// speaking a future protocol revision surfaces as a typed error
// (ErrBadFrame, ErrVersionSkew) instead of a misparse or a panic. The
// frame payload is opaque here; internal/core serializes its data
// envelopes (one per worker and flush, naming every joiner it reaches
// there, the body as one column record), migration messages, acks and
// result pairs (in the spill segment's record encoding) into it.
package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Kind discriminates frames on a link. The zero value is invalid so a
// zeroed header can never masquerade as a real frame.
type Kind uint8

const (
	// KindHello is the coordinator's opening frame on a worker link:
	// the job description (joiner ids hosted, predicate, batch sizes).
	KindHello Kind = 1 + iota
	// KindData carries one reshuffler→joiner data envelope and the ids
	// of every joiner on the receiving side it is for.
	KindData
	// KindMig carries one joiner→joiner migration-plane envelope.
	KindMig
	// KindAck carries a joiner's migration-finalized ack for the
	// controller.
	KindAck
	// KindPairs carries a run of result pairs from a remote joiner
	// back to the coordinator's sink.
	KindPairs
	// KindDone is a worker's final frame: every hosted joiner has
	// exited cleanly.
	KindDone
	// KindError carries a peer's fatal error text before it closes.
	KindError

	kindEnd
)

func (k Kind) String() string {
	switch k {
	case KindHello:
		return "hello"
	case KindData:
		return "data"
	case KindMig:
		return "mig"
	case KindAck:
		return "ack"
	case KindPairs:
		return "pairs"
	case KindDone:
		return "done"
	case KindError:
		return "error"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Version is the wire protocol revision, carried in every frame
// header. A reader that sees a different version rejects the frame
// with ErrVersionSkew — cleanly, because the magic still matched.
// Version 2 added the record encoding's empty-payload flag, which a
// version-1 reader would take for a non-dummy tuple with no payload.
// Version 3 sends a data frame's body as one column record (key, aux
// and seq columns behind a header rule) instead of a record per tuple,
// which a version-2 reader would take for a tuple count and records.
const Version = 3

// Frame header: magic "SQW" + version byte, kind, reserved, payload
// length (LE u32), CRC-32 (IEEE) of the payload (LE u32).
const (
	headerSize = 3 + 1 + 1 + 1 + 4 + 4
	// MaxFramePayload bounds a frame so a corrupt length field cannot
	// provoke a multi-gigabyte allocation before the CRC check.
	MaxFramePayload = 1 << 28
)

var frameMagic = [3]byte{'S', 'Q', 'W'}

var (
	// ErrBadFrame reports a structurally invalid frame: bad magic,
	// invalid kind, oversized or truncated payload, or a CRC mismatch.
	ErrBadFrame = errors.New("transport: bad frame")
	// ErrVersionSkew reports a well-formed frame from a different
	// protocol revision.
	ErrVersionSkew = errors.New("transport: protocol version skew")
	// ErrClosed reports an operation on a link closed by this side.
	ErrClosed = errors.New("transport: link closed")
)

// Frame is one unit on a link: a kind tag and an opaque payload.
type Frame struct {
	Kind    Kind
	Payload []byte
}

// AppendFrame serializes f onto buf and returns the extended slice.
func AppendFrame(buf []byte, f Frame) []byte {
	buf = append(buf, frameMagic[0], frameMagic[1], frameMagic[2], Version)
	buf = append(buf, byte(f.Kind), 0)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.Payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(f.Payload))
	return append(buf, f.Payload...)
}

// ReadFrame reads one frame from r. A clean end of stream before any
// header byte returns io.EOF; a stream cut mid-frame, a corrupt
// header, or a failed CRC returns an error wrapping ErrBadFrame; a
// valid header from another protocol revision returns an error
// wrapping ErrVersionSkew. The returned payload is freshly allocated,
// and a header's length claim is not allocated before the bytes arrive
// (readPayload).
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [headerSize]byte
	return readFrame(r, &hdr, false)
}

// readFrame is ReadFrame reading the header into hdr and, when pooled
// is set, a data or pairs payload into a recycled buffer (takeBuf).
func readFrame(r io.Reader, hdr *[headerSize]byte, pooled bool) (Frame, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return Frame{}, fmt.Errorf("%w: stream cut mid-header", ErrBadFrame)
		}
		return Frame{}, err
	}
	if hdr[0] != frameMagic[0] || hdr[1] != frameMagic[1] || hdr[2] != frameMagic[2] {
		return Frame{}, fmt.Errorf("%w: bad magic %q", ErrBadFrame, hdr[:3])
	}
	if hdr[3] != Version {
		return Frame{}, fmt.Errorf("%w: frame version %d, this build speaks %d", ErrVersionSkew, hdr[3], Version)
	}
	kind := Kind(hdr[4])
	if kind == 0 || kind >= kindEnd {
		return Frame{}, fmt.Errorf("%w: unknown kind %d", ErrBadFrame, hdr[4])
	}
	plen := binary.LittleEndian.Uint32(hdr[6:])
	if plen > MaxFramePayload {
		return Frame{}, fmt.Errorf("%w: payload length %d exceeds limit", ErrBadFrame, plen)
	}
	want := binary.LittleEndian.Uint32(hdr[10:])
	payload, err := readPayload(r, int(plen), pooled && (kind == KindData || kind == KindPairs))
	if err != nil {
		return Frame{}, fmt.Errorf("%w: stream cut mid-payload: %v", ErrBadFrame, err)
	}
	if got := crc32.ChecksumIEEE(payload); got != want {
		return Frame{}, fmt.Errorf("%w: payload crc %08x, header says %08x", ErrBadFrame, got, want)
	}
	return Frame{Kind: kind, Payload: payload}, nil
}

// payloadPiece is what ReadFrame allocates for a payload before any of
// its bytes arrive.
const payloadPiece = 1 << 20

// readPayload reads an n-byte frame payload. One of at most
// payloadPiece bytes lands in one buffer: a recycled one when pooled is
// set and the free list holds one large enough (takeBuf), else one
// exact allocation. A longer one arrives in pieces, each as long as
// everything before it (the first payloadPiece long), joined once
// complete: a header that claims more than the stream holds costs at
// most twice the bytes that did arrive plus payloadPiece, never its
// claim.
func readPayload(r io.Reader, n int, pooled bool) ([]byte, error) {
	if n <= payloadPiece {
		var p []byte
		if pooled {
			p = takeBuf(n)
		} else {
			p = make([]byte, n)
		}
		if _, err := io.ReadFull(r, p); err != nil {
			return nil, err
		}
		return p, nil
	}
	var pieces [][]byte
	for got := 0; got < n; {
		p := make([]byte, min(n-got, max(got, payloadPiece)))
		if _, err := io.ReadFull(r, p); err != nil {
			return nil, err
		}
		pieces = append(pieces, p)
		got += len(p)
	}
	return bytes.Join(pieces, nil), nil
}

// The free list of received payload buffers: a TCP link reads each data
// and pairs payload — the frames a stream is made of — into the
// smallest free buffer that holds it, and its receiver hands the buffer
// back (Recycle) once nothing it decoded aliases it, so a steady stream
// allocates no payload buffer. It is one list per process, for every
// link: a receive loop holds one payload at a time, so a few buffers
// serve all of them. It holds at most freeBufs buffers of at most
// freeBufMax bytes each, so idle links pin at most freeBufs ×
// freeBufMax bytes.
const (
	freeBufs   = 16
	freeBufMax = 256 << 10
)

var freeList struct {
	sync.Mutex
	bufs [freeBufs][]byte
	n    int
}

// takeBuf returns an n-byte buffer: the smallest free one whose
// capacity holds n bytes, or a fresh one of exactly n.
func takeBuf(n int) []byte {
	if n == 0 || n > freeBufMax {
		return make([]byte, n)
	}
	freeList.Lock()
	best := -1
	for i, b := range freeList.bufs[:freeList.n] {
		if cap(b) >= n && (best < 0 || cap(b) < cap(freeList.bufs[best])) {
			best = i
		}
	}
	if best < 0 {
		freeList.Unlock()
		return make([]byte, n)
	}
	b := freeList.bufs[best]
	freeList.n--
	freeList.bufs[best] = freeList.bufs[freeList.n]
	freeList.bufs[freeList.n] = nil
	freeList.Unlock()
	return b[:n]
}

// Recycle hands a received payload back to the free list its link's
// Recv takes buffers from. The caller must hold the only reference to
// p's bytes: nothing it decoded from them may alias them, and p itself
// may not be used or recycled again. A payload from any Link may be
// handed back, whatever its kind; one past freeBufMax bytes is dropped,
// and so is one no larger than every buffer of a full list (the
// smallest is dropped for a larger one).
func Recycle(p []byte) {
	if cap(p) == 0 || cap(p) > freeBufMax {
		return
	}
	freeList.Lock()
	if freeList.n < freeBufs {
		freeList.bufs[freeList.n] = p[:0]
		freeList.n++
	} else {
		small := 0
		for i, b := range freeList.bufs {
			if cap(b) < cap(freeList.bufs[small]) {
				small = i
			}
		}
		if cap(p) > cap(freeList.bufs[small]) {
			freeList.bufs[small] = p[:0]
		}
	}
	freeList.Unlock()
}

// Link is one bidirectional frame stream between two processes (or two
// ends of an in-process pipe).
//
// Send is safe for concurrent use and does not retain f.Payload.
// SendFrames sends fs in order and retains no payload either; a stream
// implementation puts them on the wire in one write. Recv must be called from a single
// goroutine. The payload it returns belongs to the caller, which may
// hand it to Recycle once nothing decoded from it aliases it. Close
// unblocks all three; a Recv or Send interrupted by Close returns an
// error wrapping ErrClosed.
type Link interface {
	Send(f Frame) error
	SendFrames(fs []Frame) error
	Recv() (Frame, error)
	Close() error
}

// rawSender is the optional fault-injection hook: a link that can put
// raw pre-encoded (possibly deliberately mangled) bytes on the wire.
// Loopback uses it to simulate short writes.
type rawSender interface {
	sendRaw(b []byte) error
}

// Listener accepts links.
type Listener interface {
	Accept() (Link, error)
	Addr() string
	Close() error
}

// ---------------------------------------------------------------------
// TCP implementation.

type tcpLink struct {
	conn net.Conn
	br   *bufio.Reader
	// hdr is Recv's frame header scratch.
	hdr [headerSize]byte

	wmu    sync.Mutex
	wbuf   []byte
	closed atomic.Bool
}

func newTCPLink(conn net.Conn) *tcpLink {
	return &tcpLink{conn: conn, br: bufio.NewReaderSize(conn, 1<<16)}
}

// Dial connects to a listening peer.
func Dial(addr string) (Link, error) { return DialTimeout(addr, 0) }

// DialTimeout is Dial with a connect deadline; 0 means the OS default.
func DialTimeout(addr string, d time.Duration) (Link, error) {
	conn, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		// Envelopes are already batched; waiting for Nagle coalescing
		// only adds latency under the request-response phases
		// (hello, acks).
		_ = tc.SetNoDelay(true)
	}
	return newTCPLink(conn), nil
}

func (l *tcpLink) Send(f Frame) error { return l.SendFrames([]Frame{f}) }

// SendFrames encodes every frame into the write buffer and hands the
// kernel one write: a writer that drained many small frames (acks,
// result pairs) pays one syscall for all of them.
func (l *tcpLink) SendFrames(fs []Frame) error {
	l.wmu.Lock()
	l.wbuf = l.wbuf[:0]
	for _, f := range fs {
		l.wbuf = AppendFrame(l.wbuf, f)
	}
	_, err := l.conn.Write(l.wbuf)
	l.wmu.Unlock()
	return l.sendErr(err)
}

func (l *tcpLink) sendRaw(b []byte) error {
	l.wmu.Lock()
	_, err := l.conn.Write(b)
	l.wmu.Unlock()
	return l.sendErr(err)
}

func (l *tcpLink) sendErr(err error) error {
	if err == nil {
		return nil
	}
	if l.closed.Load() {
		return fmt.Errorf("%w: %v", ErrClosed, err)
	}
	return fmt.Errorf("transport: send: %w", err)
}

// Recv reads the next frame. It reads the header into the link's
// scratch and a data or pairs payload into a buffer from the free list
// when one is large enough (takeBuf); the receiver hands it back with
// Recycle once it has decoded the frame. Every other kind's payload is
// a fresh allocation, as ReadFrame returns it.
func (l *tcpLink) Recv() (Frame, error) {
	f, err := readFrame(l.br, &l.hdr, true)
	if err != nil && l.closed.Load() {
		return Frame{}, fmt.Errorf("%w: %v", ErrClosed, err)
	}
	return f, err
}

func (l *tcpLink) Close() error {
	l.closed.Store(true)
	return l.conn.Close()
}

type tcpListener struct {
	ln net.Listener
}

// Listen starts a TCP listener on addr (e.g. "127.0.0.1:0").
func Listen(addr string) (Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &tcpListener{ln: ln}, nil
}

func (tl *tcpListener) Accept() (Link, error) {
	conn, err := tl.ln.Accept()
	if err != nil {
		return nil, fmt.Errorf("transport: accept: %w", err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	return newTCPLink(conn), nil
}

func (tl *tcpListener) Addr() string { return tl.ln.Addr().String() }

func (tl *tcpListener) Close() error { return tl.ln.Close() }

// ---------------------------------------------------------------------
// In-process pipe implementation.

// pipeCap is a pipe direction's buffered frame depth: enough to keep a
// sender off the scheduler in benchmarks, small enough to preserve the
// channel path's backpressure semantics.
const pipeCap = 64

// pipeHalf is one end of an in-process link. Frames travel encoded —
// the same AppendFrame/ReadFrame codec as TCP — so the pipe exercises
// the full serialization path and the two implementations only differ
// in what carries the bytes.
type pipeHalf struct {
	out chan []byte
	in  chan []byte
	// done closes when either end closes; both ends share one channel
	// so a Close unblocks the peer too.
	done      chan struct{}
	closeOnce *sync.Once
}

// Pipe returns two connected in-process links: frames sent on one are
// received by the other. It is the channel-path implementation the
// local operator semantics are defined by.
func Pipe() (Link, Link) {
	ab := make(chan []byte, pipeCap)
	ba := make(chan []byte, pipeCap)
	done := make(chan struct{})
	once := &sync.Once{}
	a := &pipeHalf{out: ab, in: ba, done: done, closeOnce: once}
	b := &pipeHalf{out: ba, in: ab, done: done, closeOnce: once}
	return a, b
}

func (p *pipeHalf) Send(f Frame) error {
	return p.sendRaw(AppendFrame(nil, f))
}

// SendFrames sends each frame as its own pipe message, in order; a
// concurrent sender's frame may land between two of them.
func (p *pipeHalf) SendFrames(fs []Frame) error {
	for _, f := range fs {
		if err := p.Send(f); err != nil {
			return err
		}
	}
	return nil
}

func (p *pipeHalf) sendRaw(b []byte) error {
	select {
	case <-p.done:
		return ErrClosed
	default:
	}
	select {
	case p.out <- b:
		return nil
	case <-p.done:
		return ErrClosed
	}
}

func (p *pipeHalf) Recv() (Frame, error) {
	// Drain buffered frames even after a close: the closing side may
	// have queued its final frames (Done) just before closing.
	select {
	case b := <-p.in:
		return ReadFrame(bytes.NewReader(b))
	default:
	}
	select {
	case b := <-p.in:
		return ReadFrame(bytes.NewReader(b))
	case <-p.done:
		return Frame{}, io.EOF
	}
}

func (p *pipeHalf) Close() error {
	p.closeOnce.Do(func() { close(p.done) })
	return nil
}
