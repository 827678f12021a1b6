package main

import (
	"fmt"
	"math/rand"
	"time"

	squall "repro"
	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// joiners is J for every workload: the paper's 16-machine grid, a
// power of two so the single-grid operator runs.
const joiners = 16

// runLen is the SendBatch run length of the closed loop and the window
// of the replays: the operator's default envelope capacity.
const runLen = 32

// spec describes one workload. Sizes are the full-scale ones; -quick
// divides them.
type spec struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string
	// gen builds the stream from the seed; tuples come back without Aux.
	gen  func(seed int64, tuples int) []squall.Tuple
	pred squall.Predicate
	// tuples is the stream length gen is asked for.
	tuples int
	// adaptive turns the controller on (with warmup tuples of warm-up).
	adaptive bool
	warmup   int64
	// ckptEvery, when non-zero, makes the feeder call Checkpoint()
	// synchronously after every ckptEvery tuples, against a FileBackend.
	ckptEvery int
	// workers is the number of in-process TCP worker servers hosting
	// the joiners (0: all joiners local).
	workers int
	// openRate is the open-loop input rate in tuples/s and openTuples
	// the stream prefix one open-loop rep feeds.
	openRate   int
	openTuples int
}

func specs() []spec {
	equi := squall.Equi("bench-equi")
	return []spec{
		{
			name:     "sparse_equi",
			why:      "Uniform 2^22-key equi-join, 0.06 pairs/tuple: input-dominated, lanes to reshuffler to HashIndex insert; the sink idles.",
			gen:      genUniform(1<<22, 8),
			pred:     equi,
			tuples:   1_000_000,
			openRate: 200_000, openTuples: 400_000,
		},
		{
			name:     "hot_band",
			why:      "Band join width 8 over 50k keys, 34 pairs/tuple: output-dominated OrderedIndex probe, pair materialize and sink; bypasses the hash path.",
			gen:      genUniform(50_000, 8),
			pred:     squall.Band("bench-band", 8),
			tuples:   400_000,
			openRate: 60_000, openTuples: 120_000,
		},
		{
			name:     "fluct_adaptive",
			why:      "TPC-H Orders x Lineitem at Zipf 1.0 with the arrival ratio swinging 4 to 1/4: the only workload where controller and migration plane run.",
			gen:      genFluct,
			pred:     equi,
			tuples:   fluctTuples,
			adaptive: true, warmup: 20_000,
			openRate: 150_000, openTuples: 300_000,
		},
		{
			name:      "ckpt_equi",
			why:       "Half of sparse_equi with a synchronous file checkpoint every 50k tuples: the durability tax; only workload where snapshot and backend code runs.",
			gen:       genUniform(1<<22, 8),
			pred:      equi,
			tuples:    500_000,
			ckptEvery: 50_000,
			openRate:  100_000, openTuples: 200_000,
		},
		{
			name:     "dist_equi",
			why:      "sparse_equi's stream with all joiners behind two TCP worker links: transport framing and the remote stub are the only difference.",
			gen:      genUniform(1<<22, 8),
			pred:     equi,
			tuples:   1_000_000,
			workers:  2,
			openRate: 100_000, openTuples: 200_000,
		},
	}
}

func specByName(name string) (spec, bool) {
	for _, s := range specs() {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scaled returns the spec at 1/div of its size (-quick and the smoke
// test).
func (s spec) scaled(div int) spec {
	if div <= 1 {
		return s
	}
	s.tuples /= div
	s.openTuples /= div
	s.warmup /= int64(div)
	if s.ckptEvery > 0 {
		s.ckptEvery /= div
	}
	return s
}

// genUniform returns a generator of n tuples alternating R and S with
// keys uniform in [0, keys).
func genUniform(keys int64, size int32) func(int64, int) []squall.Tuple {
	return func(seed int64, n int) []squall.Tuple {
		rng := rand.New(rand.NewSource(seed))
		ts := make([]squall.Tuple, n)
		for i := range ts {
			ts[i] = squall.Tuple{Rel: matrix.Side(i & 1), Key: rng.Int63n(keys), Size: size}
		}
		return ts
	}
}

// fluct_adaptive at full size is TPC-H scale factor 1.5, which yields
// about fluctTuples tuples (the Orders filter makes the count depend
// slightly on the seed).
const (
	fluctSF     = 1.5
	fluctTuples = 1_034_000
)

// genFluct returns the §5.4 fluctuating stream: Orders x Lineitem on
// orderkey under the paper's highest skew, the arrival ratio swinging
// between 4 and 1/4. A smaller n scales the scale factor down with it
// (the quick sizes).
func genFluct(seed int64, n int) []squall.Tuple {
	sf := fluctSF * float64(n) / fluctTuples
	g := tpch.NewGen(tpch.Config{SF: sf, Zipf: 1.0, Seed: seed})
	var ts []squall.Tuple
	workload.FluctStream(g, 4, func(t join.Tuple) bool {
		ts = append(ts, t)
		return true
	})
	return ts
}

// stream is a generated input with everything the reps check against.
type stream struct {
	tuples []squall.Tuple
	// open is how many of them one open-loop rep feeds: the spec's
	// prefix, cut to the stream and to whole oracle windows so that its
	// expected pair count is exact.
	open   int
	r, s   int64 // final cardinalities
	digest uint64
	// pairs and checksum are the oracle's answer for the whole stream;
	// openPairs is its pair count for the open-loop prefix.
	pairs, openPairs int64
	checksum         uint64
	genSeconds       float64
	oracleSeconds    float64
}

// buildStream generates the workload's stream, stamps every tuple's
// index into Aux (the sink maps a pair back to its tuples through it),
// digests it, and runs the single-goroutine oracle over it.
func buildStream(sp spec, seed int64) *stream {
	st := &stream{}
	t0 := time.Now()
	st.tuples = sp.gen(seed, sp.tuples)
	st.genSeconds = time.Since(t0).Seconds()
	h := uint64(14695981039346656037)
	for i := range st.tuples {
		t := &st.tuples[i]
		t.Aux = int64(i)
		if t.Rel == matrix.SideR {
			st.r++
		} else {
			st.s++
		}
		for _, w := range [3]uint64{uint64(t.Rel), uint64(t.Key), uint64(t.Size)} {
			h = (h ^ w) * 1099511628211
		}
	}
	st.digest = h
	st.open = min(sp.openTuples, len(st.tuples))
	st.open -= st.open % oracleWindow
	t0 = time.Now()
	st.pairs, st.openPairs, st.checksum = oracle(sp.pred, st.tuples, st.open)
	st.oracleSeconds = time.Since(t0).Seconds()
	return st
}

func (st *stream) String() string {
	return fmt.Sprintf("%d tuples (R %d, S %d), %d pairs, input_digest %016x", len(st.tuples), st.r, st.s, st.pairs, st.digest)
}

// oracleWindow is how many stream tuples the oracle (and the replays)
// de-interleave into one R run and one S run. Probing the R run before
// inserting the S run finds every pair exactly once, so the result is
// the stream-order answer while the joins see same-side runs, as a
// joiner does.
const oracleWindow = 2 * runLen

// pairMix maps a pair to a 64-bit value from its tuples' stream
// indices; the order-independent checksum is the wrapping sum.
func pairMix(rAux, sAux int64) uint64 {
	z := uint64(rAux)*0x9e3779b97f4a7c15 ^ uint64(sAux)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// windows feeds ts to add as same-side runs, one R run and one S run
// per oracleWindow tuples.
func windows(ts []squall.Tuple, add func(run []squall.Tuple)) {
	rs := make([]squall.Tuple, 0, oracleWindow)
	ss := make([]squall.Tuple, 0, oracleWindow)
	for lo := 0; lo < len(ts); lo += oracleWindow {
		hi := min(lo+oracleWindow, len(ts))
		rs, ss = rs[:0], ss[:0]
		for _, t := range ts[lo:hi] {
			if t.Rel == matrix.SideR {
				rs = append(rs, t)
			} else {
				ss = append(ss, t)
			}
		}
		add(rs)
		add(ss)
	}
}

// oracle joins the whole stream through one join.Local on the calling
// goroutine: the expected pair count (also at the open-loop prefix)
// and the order-independent checksum every rep is held to. Timed by
// the caller, it doubles as the single-threaded baseline.
func oracle(pred squall.Predicate, ts []squall.Tuple, prefix int) (pairs, prefixPairs int64, sum uint64) {
	l := join.NewLocal(pred)
	var out []squall.Pair
	fed := 0
	windows(ts, func(run []squall.Tuple) {
		out = out[:0]
		l.AddBatchCollect(run, &out)
		pairs += int64(len(out))
		for i := range out {
			sum += pairMix(out[i].R.Aux, out[i].S.Aux)
		}
		fed += len(run)
		if fed == prefix {
			prefixPairs = pairs
		}
	})
	if prefix >= len(ts) {
		prefixPairs = pairs
	}
	return pairs, prefixPairs, sum
}
