package join

import "repro/internal/matrix"

// Local is a local non-blocking symmetric join over one partition pair
// (R_i, S_j): the generalization of the symmetric hash join [42] that
// every joiner task runs. When a new tuple arrives it first probes the
// stored tuples of the opposite relation (emitting matches) and is then
// stored for future probes. Because every pair meets exactly once —
// when the later of the two arrives — the output is exactly
// R_i ⋈ S_j with no duplicates, regardless of arrival interleaving.
type Local struct {
	pred Predicate
	r, s Index
}

// NewLocal returns an empty local join for the predicate.
func NewLocal(p Predicate) *Local {
	return &Local{pred: p, r: NewIndex(p), s: NewIndex(p)}
}

// Insert stores t without probing.
func (l *Local) Insert(t Tuple) {
	if t.Rel == matrix.SideR {
		l.r.Insert(t)
	} else {
		l.s.Insert(t)
	}
}

// AddBatchCollect probes and then stores a run of same-side tuples
// (all ts share ts[0].Rel), appending every match to *out: the
// symmetric join's probe-then-store step a run at a time (a one-tuple
// run is the classic per-tuple step). When both sides are hash-indexed
// (the equi-join hot path) the probe and the insert are fused in the
// same pipelined directory walk ProbeBatchCollect uses (HashIndex.walk):
// each key is hashed once, and the hash drives both the probe of the
// opposite directory and the insert into the own-side one, a chunk of
// keys' directory misses at a time. Because tuples of one relation
// never join each other, the fused walk emits exactly the pairs the
// two-pass form would.
func (l *Local) AddBatchCollect(ts []Tuple, out *[]Pair) {
	l.AddWindowCollect(ts, Window{}, out)
}

// AddWindowCollect is AddBatchCollect for a run whose columns a
// reshuffler already wrote into the shared window w (row i holding
// ts[i]): the probe runs on ts as ever, and a hash-indexed side stores
// the run as a view of w — continuing a segment of the writer's slot
// index when it can (HashIndex.takeWindow), else writing its own
// directory and chain column. Any other index kind, or a window that
// does not name exactly ts, stores a copy. The zero Window is
// AddBatchCollect.
func (l *Local) AddWindowCollect(ts []Tuple, w Window, out *[]Pair) {
	if len(ts) == 0 {
		return
	}
	own, opp := l.s, l.r
	if ts[0].Rel == matrix.SideR {
		own, opp = l.r, l.s
	}
	oh, ownHash := own.(*HashIndex)
	ph, oppHash := opp.(*HashIndex)
	if !ownHash || !oppHash {
		l.ProbeBatchCollect(ts, out)
		l.InsertWindow(ts, w)
		return
	}
	if oh.takeWindow(ts, w) {
		oh = nil
	}
	if ph.used != 0 || oh != nil {
		hits := ph.walk(ts, oh, w, ph.hits[:0])
		// The gathered offsets point into the opposite side's arena,
		// which the inserts never touch, so materialization can run
		// after the whole run is stored.
		materialize(&ph.arena, ts, hits, ts[0].Rel, l.pred, out)
		ph.putHits(hits)
	}
	ph.probeSegments(ts, ts[0].Rel, l.pred, out)
}

// Reserve passes per-side expected-cardinality hints through to the
// indexes, presizing their directories and chain columns (see
// Index.Reserve).
func (l *Local) Reserve(r, s int) {
	l.r.Reserve(r)
	l.s.Reserve(s)
}

// ProbeBatchCollect joins a run of same-side tuples against the stored
// tuples of the opposite relation without storing them, appending
// every match to *out as an oriented Pair: the epoch protocol's probes
// of stores a run is not inserted into. Dummy padding tuples never match, so they
// are skipped before reaching the index; in the common dummy-free run
// this costs one scan and probes the run in a single index call.
func (l *Local) ProbeBatchCollect(ts []Tuple, out *[]Pair) {
	for start := 0; start < len(ts); {
		if ts[start].Dummy {
			start++
			continue
		}
		end := start + 1
		for end < len(ts) && !ts[end].Dummy {
			end++
		}
		run := ts[start:end]
		if run[0].Rel == matrix.SideR {
			l.s.ProbeBatchCollect(run, matrix.SideR, l.pred, out)
		} else {
			l.r.ProbeBatchCollect(run, matrix.SideS, l.pred, out)
		}
		start = end
	}
}

// InsertBatch stores a run of same-side tuples without probing.
func (l *Local) InsertBatch(ts []Tuple) { l.InsertWindow(ts, Window{}) }

// InsertWindow stores a run of same-side tuples without probing, as a
// view of the shared window w when the side is hash-indexed (see
// AddWindowCollect).
func (l *Local) InsertWindow(ts []Tuple, w Window) {
	if len(ts) == 0 {
		return
	}
	idx := l.index(ts[0].Rel)
	if h, ok := idx.(*HashIndex); ok {
		h.InsertWindow(ts, w)
		return
	}
	idx.InsertBatch(ts)
}

// MergeFrom bulk-merges the other join's stored tuples into l,
// consuming other. Both joins are built from the same predicate, so
// each side merges through its own index kind's MergeFrom: hash and
// scan indexes adopt the other's arena blocks, ordered indexes merge
// their two leaf chains.
func (l *Local) MergeFrom(other *Local) {
	mergeIndex(l.r, other.r)
	mergeIndex(l.s, other.s)
}

// mergeIndex merges src, an index of dst's own kind, into dst.
func mergeIndex(dst, src Index) {
	switch d := dst.(type) {
	case *HashIndex:
		d.MergeFrom(src.(*HashIndex))
	case *ScanIndex:
		d.MergeFrom(src.(*ScanIndex))
	case *OrderedIndex:
		d.MergeFrom(src.(*OrderedIndex))
	}
}

// Len returns the stored tuple counts per side.
func (l *Local) Len(side matrix.Side) int { return l.index(side).Len() }

// TotalLen returns the total stored tuple count.
func (l *Local) TotalLen() int { return l.r.Len() + l.s.Len() }

// Bytes returns the total accounted stored volume.
func (l *Local) Bytes() int64 { return l.r.Bytes() + l.s.Bytes() }

// Footprint returns the resident bytes behind both sides' stored
// tuples, split as Index.Footprint splits them.
func (l *Local) Footprint() (arenaBytes, directoryBytes int64) {
	ra, rd := l.r.Footprint()
	sa, sd := l.s.Footprint()
	return ra + sa, rd + sd
}

// Scan visits stored tuples of one side.
func (l *Local) Scan(side matrix.Side, fn func(Tuple) bool) { l.index(side).Scan(fn) }

// index returns the index holding side's tuples.
func (l *Local) index(side matrix.Side) Index {
	if side == matrix.SideR {
		return l.r
	}
	return l.s
}

// Retain keeps only the tuples of the given side whose u is in keep,
// returning the number discarded. The other side is untouched.
func (l *Local) Retain(side matrix.Side, keep matrix.Top) int {
	return l.index(side).Retain(keep)
}

// SelectInto copies the stored tuples of side whose u is in keep into
// e, calling ship whenever e holds limit tuples, and returns how many
// it copied (see BlockEncoder.addSelected).
func (l *Local) SelectInto(side matrix.Side, keep matrix.Top, e *BlockEncoder, limit int, ship func()) int {
	return e.addSelected(l.index(side), side, keep, limit, ship)
}
