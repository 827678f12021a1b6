package transport

import (
	"math/rand"
	"sync"
	"time"
)

// LoopbackConfig configures a Loopback's fault injection. Each rate is
// an independent per-frame probability in [0,1]; rates are evaluated in
// the order drop, duplicate, short-write, delay, and at most one of
// drop/duplicate/short-write fires per frame.
type LoopbackConfig struct {
	// Seed makes the fault sequence reproducible; 0 seeds from the
	// clock, mirroring FlakyBackend.
	Seed int64
	// Drop silently discards the frame.
	Drop float64
	// Dup delivers the frame twice.
	Dup float64
	// ShortWrite puts only a prefix of the encoded frame on the wire,
	// modeling a sender that died mid-write: the receiver's codec must
	// reject the torn frame with ErrBadFrame, never misparse it.
	ShortWrite float64
	// DelayProb sleeps Delay before the send with this probability.
	DelayProb float64
	Delay     time.Duration
}

// Loopback decorates a Link with deterministic fault injection —
// dropped, duplicated, delayed, and short-written frames — the
// transport plane's analogue of storage.FlakyBackend. It wraps the
// send side only; Recv and Close pass through.
type Loopback struct {
	inner Link
	raw   rawSender // non-nil when inner supports torn raw writes

	mu  sync.Mutex
	rng *rand.Rand
	cfg LoopbackConfig

	// Counters for tests and chaos-drill assertions.
	Dropped, Duplicated, ShortWrites, Delayed, Sent int64
}

// NewLoopback wraps inner with fault injection per cfg.
func NewLoopback(inner Link, cfg LoopbackConfig) *Loopback {
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	raw, _ := inner.(rawSender)
	return &Loopback{inner: inner, raw: raw, rng: rand.New(rand.NewSource(seed)), cfg: cfg}
}

// roll decides this frame's fate under the single rng lock.
func (lb *Loopback) roll() (drop, dup, short, delay bool) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	switch {
	case lb.cfg.Drop > 0 && lb.rng.Float64() < lb.cfg.Drop:
		drop = true
	case lb.cfg.Dup > 0 && lb.rng.Float64() < lb.cfg.Dup:
		dup = true
	case lb.cfg.ShortWrite > 0 && lb.rng.Float64() < lb.cfg.ShortWrite:
		short = true
	}
	delay = lb.cfg.DelayProb > 0 && lb.rng.Float64() < lb.cfg.DelayProb
	return
}

func (lb *Loopback) Send(f Frame) error {
	_, err := lb.send(f)
	return err
}

// SendFrames sends each frame through the fault wrapper on its own, so
// every fault hits a single frame of the batch. A torn frame ends the
// batch: the sender died mid-write and writes nothing after it.
func (lb *Loopback) SendFrames(fs []Frame) error {
	for _, f := range fs {
		torn, err := lb.send(f)
		if err != nil || torn {
			return err
		}
	}
	return nil
}

// send rolls f's fate and sends it, reporting whether it went out torn.
func (lb *Loopback) send(f Frame) (torn bool, err error) {
	drop, dup, short, delay := lb.roll()
	if delay {
		lb.count(&lb.Delayed)
		time.Sleep(lb.cfg.Delay)
	}
	switch {
	case drop:
		lb.count(&lb.Dropped)
		return false, nil
	case dup:
		lb.count(&lb.Duplicated)
		if err := lb.inner.Send(f); err != nil {
			return false, err
		}
	case short && lb.raw != nil:
		lb.count(&lb.ShortWrites)
		enc := AppendFrame(nil, f)
		// Keep at least one byte so the receiver sees a torn frame, not
		// a clean end of stream.
		cut := 1 + int(lb.randN(len(enc)-1))
		return true, lb.raw.sendRaw(enc[:cut])
	}
	lb.count(&lb.Sent)
	return false, lb.inner.Send(f)
}

func (lb *Loopback) randN(n int) int64 {
	if n <= 0 {
		return 0
	}
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.rng.Int63n(int64(n))
}

func (lb *Loopback) count(c *int64) {
	lb.mu.Lock()
	*c++
	lb.mu.Unlock()
}

// Counts returns the fault counters under the lock.
func (lb *Loopback) Counts() (sent, dropped, duplicated, shortWrites, delayed int64) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.Sent, lb.Dropped, lb.Duplicated, lb.ShortWrites, lb.Delayed
}

func (lb *Loopback) Recv() (Frame, error) { return lb.inner.Recv() }

func (lb *Loopback) Close() error { return lb.inner.Close() }
