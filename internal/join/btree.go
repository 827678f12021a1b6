package join

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/matrix"
)

// OrderedIndex is the band-join index: a B+tree keyed on Tuple.Key
// whose leaves hold the tuples themselves. The paper's joiners serve
// band joins from "balanced binary trees" (§5); a B+tree keeps that
// contract — ordered inserts, range probes — with far fewer cache
// misses per probe, and its key-ordered leaves are what make a band
// probe cheap:
//
//   - a leaf is a small columnar block (key, aux, u, seq, meta, and a
//     lazily allocated payload column) of up to ordLeafCap tuples in
//     key order, linked to its right sibling;
//   - an inner node is one allocation of separator keys and child
//     pointers;
//   - a probe descends once to the first key >= k-w and then sweeps
//     consecutive positions of each column, leaf after leaf, until the
//     key passes k+w — every match is read from memory the previous
//     match already brought in, where an arrival-ordered store behind
//     a key-ordered directory reads five scattered columns per match.
//
// A store's index holds its rows in two places: its own tree, and the
// rows of one grid line's tree (LineTree) below its watermark (a
// segment). On the grid route every R tuple is stored by the m joiners
// of its row, so in one process a first-epoch band line keeps one tree,
// written once by the line's writer, and each joiner that took every
// window of the line since its first reads that tree as of its own
// watermark instead of inserting the rows into its own tree. Everything
// else goes into the own tree: a window that does not continue the
// segment (lineMark.take, the rule a hash segment follows too) first
// folds the segment's rows into the own tree and drops it, so the own
// tree's rows always precede the segment's in insertion order.
//
// Among equal keys tuples keep their insertion order: an insert lands
// after every stored tuple with the same key, so Scan — the own tree
// and the segment merged, the own tree's rows first among equal keys —
// is key order with ties in insertion order, and bulk builds (Retain,
// MergeFrom, snapshot restore) preserve it.
//
// Nothing is ever deleted in place: Retain rebuilds, so nodes need no
// minimum fill, and a bulk build packs leaves to ordBulkFill.
type OrderedIndex struct {
	ordTree
	width int64
	bytes int64
	// line is the line tree whose rows below mark.w the index holds as
	// well; nil when it reads none.
	line *LineTree
	mark lineMark
}

// ordTree is one B+tree: a store's own, or a line's.
type ordTree struct {
	// root is nil while the whole tree is the single leaf head.
	root *ordInner
	// head is the leftmost leaf, where Scan and the leaf chain start;
	// nil while the tree is empty.
	head *ordLeaf
	// height counts inner levels: root's children are leaves when 1.
	height int
	n      int
	// leaves and inners count allocated nodes for Footprint.
	leaves, inners int
}

// ordLeafCap is the tuple capacity of a leaf: 66 five-word tuples and
// the three header words fill the 2688-byte size class.
const ordLeafCap = 66

// ordFan is the child capacity of an inner node.
const ordFan = 64

// ordBulkFill and ordInnerFill are how many tuples a bulk build packs
// into each leaf and how many children into each inner node: dense, yet
// leaving room for a few inserts before the first split.
const (
	ordBulkFill  = ordLeafCap - ordLeafCap/8
	ordInnerFill = ordFan - ordFan/8
)

// ordMaxHeight bounds the inner levels an insert's descent records.
// Split-built inner nodes hold at least ordFan/2 children and
// bulk-built ones ordInnerFill (only the rightmost of a level may hold
// fewer), so a ninth level would need some 2^40 leaves beneath it.
const ordMaxHeight = 8

// ordLeaf is one key-ordered column block. n is the fill level;
// positions at or past n are unwritten (or stale). payload is
// allocated on the first payload-carrying tuple the leaf receives. In
// a line tree each meta word also holds its row's line position
// (linePosShift).
type ordLeaf struct {
	next    *ordLeaf
	payload *[ordLeafCap][]byte
	n       int
	key     [ordLeafCap]int64
	aux     [ordLeafCap]int64
	u       [ordLeafCap]uint64
	seq     [ordLeafCap]uint64
	meta    [ordLeafCap]uint64
}

// ordInner is one inner node: n children and n-1 separators. keys[i]
// separates child i from child i+1: every key under child i is <=
// keys[i] and every key under child i+1 is >= it (equal keys may sit on
// both sides). A node on the level just above the leaves uses leaves,
// every other node kids; the unused array stays nil.
type ordInner struct {
	n      int
	keys   [ordFan - 1]int64
	kids   [ordFan]*ordInner
	leaves [ordFan]*ordLeaf
}

// Resident node sizes behind Footprint: what the allocator hands out
// for one leaf (2664 bytes in the 2688-byte size class) and one inner
// node (exactly the 1536-byte class). TestOrderedIndexFootprintBudget
// holds both against the measured heap.
const (
	ordLeafBytes  = 2688
	ordInnerBytes = 1536
)

// A node that outgrows its size class must fail the build, not skew
// the footprint gauges.
var (
	_ [ordLeafBytes - unsafe.Sizeof(ordLeaf{})]byte
	_ [ordInnerBytes - unsafe.Sizeof(ordInner{})]byte
)

// linePosShift is where a line tree's meta words hold their rows' line
// positions: the 30 bits above Size, Rel and Dummy (Tuple.metaWord),
// which nothing that reads a meta word back into a tuple looks at. A
// store's own tree keeps them zero (copyIn clears them).
const linePosShift = 34

// metaFields masks a meta word down to the tuple's own fields.
const metaFields = 1<<linePosShift - 1

// maxLineRows bounds the rows one line tree holds, so that every line
// position, and every watermark, fits the meta word's spare bits; a
// line at the bound publishes no further window (LineTree.Append). A
// variable only so that tests can narrow it.
var maxLineRows = uint32(1)<<(64-linePosShift) - 1

// belowMark returns the bound that holds a segment's reads to the rows
// below the watermark w: a row's line position is its meta word's top
// field, so the row lies below w exactly when its meta word is below
// belowMark(w) — one comparison per row, which the probe sweep makes
// anyway to reject dummies.
func belowMark(w uint32) uint64 { return uint64(w) << linePosShift }

// anyRow is the read bound of a store's own tree, whose meta words
// hold no line position: every row passes it.
const anyRow = ^uint64(0)

// NewOrderedIndex returns an empty ordered index whose Probe matches
// stored keys within +-width of the probe key.
func NewOrderedIndex(width int64) *OrderedIndex {
	return &OrderedIndex{width: width}
}

// Len returns the number of stored tuples: the own tree's and the
// segment's, which are exactly the line's rows below the watermark.
func (o *OrderedIndex) Len() int { return o.n + int(o.mark.w) }

// Bytes returns the accounted stored volume.
func (o *OrderedIndex) Bytes() int64 { return o.bytes }

// Footprint reports the own tree's leaves as arena bytes and its inner
// nodes as directory bytes, each as the allocator rounds them; a
// segment adds its share of the line tree's (LineTree.share). Payload
// columns, like the arena's, are not counted.
func (o *OrderedIndex) Footprint() (arenaBytes, directoryBytes int64) {
	arenaBytes, directoryBytes = o.footprint()
	if o.line != nil {
		a, d := o.line.share()
		arenaBytes += a
		directoryBytes += d
	}
	return arenaBytes, directoryBytes
}

// footprint returns the tree's resident leaf and inner-node bytes.
func (t *ordTree) footprint() (leafBytes, innerBytes int64) {
	return int64(t.leaves) * ordLeafBytes, int64(t.inners) * ordInnerBytes
}

func (t *ordTree) newLeaf() *ordLeaf {
	t.leaves++
	return &ordLeaf{}
}

func (t *ordTree) newInner() *ordInner {
	t.inners++
	return &ordInner{}
}

// upperBound returns the first index of the sorted ks whose key is
// strictly greater than k.
func upperBound(ks []int64, k int64) int {
	lo, hi := 0, len(ks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ks[mid] <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lowerBound returns the first index of the sorted ks whose key is
// >= k.
func lowerBound(ks []int64, k int64) int {
	lo, hi := 0, len(ks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ks[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// set writes t into position pos, overwriting it, with the meta word
// m.
func (l *ordLeaf) set(pos int, t *Tuple, m uint64) {
	l.key[pos] = t.Key
	l.aux[pos] = t.Aux
	l.u[pos] = t.U
	l.seq[pos] = t.Seq
	l.meta[pos] = m
	if l.payload != nil {
		l.payload[pos] = t.Payload
	} else if t.Payload != nil {
		l.payload = new([ordLeafCap][]byte)
		l.payload[pos] = t.Payload
	}
}

// insertAt shifts positions [pos, n) one to the right and writes t at
// pos with the meta word m. The leaf must not be full.
func (l *ordLeaf) insertAt(pos int, t *Tuple, m uint64) {
	n := l.n
	if pos < n {
		copy(l.key[pos+1:n+1], l.key[pos:n])
		copy(l.aux[pos+1:n+1], l.aux[pos:n])
		copy(l.u[pos+1:n+1], l.u[pos:n])
		copy(l.seq[pos+1:n+1], l.seq[pos:n])
		copy(l.meta[pos+1:n+1], l.meta[pos:n])
		if l.payload != nil {
			copy(l.payload[pos+1:n+1], l.payload[pos:n])
		}
	}
	l.set(pos, t, m)
	l.n++
}

// copyIn appends position i of src to l, column by column, without
// materializing the tuple and without its line position. l must not be
// full.
func (l *ordLeaf) copyIn(src *ordLeaf, i int) {
	pos := l.n
	l.key[pos] = src.key[i]
	l.aux[pos] = src.aux[i]
	l.u[pos] = src.u[i]
	l.seq[pos] = src.seq[i]
	l.meta[pos] = src.meta[i] & metaFields
	if p := src.payloadAt(i); p != nil {
		if l.payload == nil {
			l.payload = new([ordLeafCap][]byte)
		}
		l.payload[pos] = p
	}
	l.n++
}

// payloadAt returns the payload stored at pos, if any.
func (l *ordLeaf) payloadAt(pos int) []byte {
	if l.payload == nil {
		return nil
	}
	return l.payload[pos]
}

// atInto materializes the tuple at pos into *dst, overwriting every
// field, with the meta word supplied by the caller (the probe sweep has
// read it already to reject dummies).
func (l *ordLeaf) atInto(pos int, m uint64, dst *Tuple) {
	dst.setMeta(m)
	dst.Key = l.key[pos]
	dst.Aux = l.aux[pos]
	dst.U = l.u[pos]
	dst.Seq = l.seq[pos]
	dst.Payload = l.payloadAt(pos)
}

// at materializes the tuple at pos.
func (l *ordLeaf) at(pos int) Tuple {
	var t Tuple
	l.atInto(pos, l.meta[pos], &t)
	return t
}

// insertKid hangs a new child right of child i, with sep as the
// separator between them. The node must not be full; leaf is the new
// child on the level above the leaves, kid on every other level.
func (in *ordInner) insertKid(i int, sep int64, leaf *ordLeaf, kid *ordInner) {
	n := in.n
	copy(in.keys[i+1:n], in.keys[i:n-1])
	in.keys[i] = sep
	if leaf != nil {
		copy(in.leaves[i+2:n+1], in.leaves[i+1:n])
		in.leaves[i+1] = leaf
	} else {
		copy(in.kids[i+2:n+1], in.kids[i+1:n])
		in.kids[i+1] = kid
	}
	in.n++
}

// ordStep is one level of an insert's descent: the inner node and the
// child index taken.
type ordStep struct {
	node *ordInner
	i    int
}

// Insert stores t in the own tree, after every stored tuple with the
// same key.
func (o *OrderedIndex) Insert(t Tuple) {
	o.unshare()
	o.insert(&t, t.metaWord())
	o.bytes += t.Bytes()
}

// InsertBatch stores every tuple of ts, in order, in the own tree.
// Insertion cost is the descent and one leaf's shift, so the batch
// form is a plain loop.
func (o *OrderedIndex) InsertBatch(ts []Tuple) { o.InsertWindow(ts, Window{}) }

// InsertWindow stores the run ts, which a line's writer inserted into
// its line tree as the window w (the zero Window when none did): as the
// continuation of the segment (takeWindow), else in the own tree, after
// folding the segment into it.
func (o *OrderedIndex) InsertWindow(ts []Tuple, w Window) {
	if len(ts) == 0 {
		return
	}
	if !o.takeWindow(ts, w) {
		o.unshare()
		for i := range ts {
			o.insert(&ts[i], ts[i].metaWord())
		}
	}
	for i := range ts {
		o.bytes += ts[i].Bytes()
	}
}

// takeWindow stores the run ts, which the line tree of w holds at w's
// positions, as the continuation of the index's segment — or the start
// of one, at the line's first window — and reports whether it did: only
// the watermark moves. Any other window is left to the own tree.
func (o *OrderedIndex) takeWindow(ts []Tuple, w Window) bool {
	if w.tree == nil || w.Len() != len(ts) {
		return false
	}
	if o.line == nil {
		if !opensLine(w) {
			return false
		}
		o.line, o.mark = w.tree, lineMark{live: true}
	} else if o.line != w.tree {
		return false
	}
	return o.mark.take(w)
}

// unshare folds the segment, if any, into the own tree (rebuild)
// before a row the segment does not hold goes there, so the own tree's
// rows keep preceding the segment's in insertion order.
func (o *OrderedIndex) unshare() {
	if o.line != nil {
		o.rebuild(matrix.TopAll)
	}
}

// insert stores tp with the meta word m after every stored tuple with
// the same key.
func (t *ordTree) insert(tp *Tuple, m uint64) {
	t.n++
	if t.head == nil {
		t.head = t.newLeaf()
	}
	var path [ordMaxHeight]ordStep
	l := t.head
	if in := t.root; in != nil {
		for h := t.height - 1; ; h-- {
			i := upperBound(in.keys[:in.n-1], tp.Key)
			path[h] = ordStep{in, i}
			if h == 0 {
				l = in.leaves[i]
				break
			}
			in = in.kids[i]
		}
	}
	pos := upperBound(l.key[:l.n], tp.Key)
	if l.n < ordLeafCap {
		l.insertAt(pos, tp, m)
		return
	}
	r := t.splitLeaf(l)
	if pos <= l.n {
		l.insertAt(pos, tp, m)
	} else {
		r.insertAt(pos-l.n, tp, m)
	}
	t.lift(path[:t.height], r.key[0], r, nil)
}

// splitLeaf moves the upper half of the full leaf l into a new right
// sibling and returns it.
func (t *ordTree) splitLeaf(l *ordLeaf) *ordLeaf {
	r := t.newLeaf()
	h := l.n / 2
	r.n = l.n - h
	copy(r.key[:r.n], l.key[h:l.n])
	copy(r.aux[:r.n], l.aux[h:l.n])
	copy(r.u[:r.n], l.u[h:l.n])
	copy(r.seq[:r.n], l.seq[h:l.n])
	copy(r.meta[:r.n], l.meta[h:l.n])
	if l.payload != nil {
		r.payload = new([ordLeafCap][]byte)
		copy(r.payload[:r.n], l.payload[h:l.n])
		clear(l.payload[h:l.n])
	}
	l.n = h
	r.next, l.next = l.next, r
	return r
}

// splitInner moves the upper half of the full node in into a new right
// sibling, returning it and the separator between the two halves.
func (t *ordTree) splitInner(in *ordInner) (*ordInner, int64) {
	r := t.newInner()
	h := ordFan / 2
	sep := in.keys[h-1]
	r.n = in.n - h
	copy(r.keys[:r.n-1], in.keys[h:in.n-1])
	copy(r.kids[:r.n], in.kids[h:in.n])
	copy(r.leaves[:r.n], in.leaves[h:in.n])
	clear(in.kids[h:in.n])
	clear(in.leaves[h:in.n])
	in.n = h
	return r, sep
}

// lift hangs a new right sibling (leaf or kid, its keys starting at
// sep) next to the child an insert's descent took, walking path up
// from the leaves' parent: a full node splits and passes its own new
// sibling up, and a split root grows the tree by one level.
func (t *ordTree) lift(path []ordStep, sep int64, leaf *ordLeaf, kid *ordInner) {
	for _, st := range path {
		in, i := st.node, st.i
		if in.n < ordFan {
			in.insertKid(i, sep, leaf, kid)
			return
		}
		r, up := t.splitInner(in)
		if i < in.n {
			in.insertKid(i, sep, leaf, kid)
		} else {
			r.insertKid(i-in.n, sep, leaf, kid)
		}
		sep, leaf, kid = up, nil, r
	}
	root := t.newInner()
	root.n = 1
	if t.root == nil {
		root.leaves[0] = t.head
	} else {
		root.kids[0] = t.root
	}
	root.insertKid(0, sep, leaf, kid)
	t.root = root
	t.height++
}

// seek returns the leaf holding the first stored key >= k and its
// position there. The position may equal the leaf's fill, in which case
// the key, if any, opens the next leaf. The tree must not be empty.
func (t *ordTree) seek(k int64) (*ordLeaf, int) {
	l := t.head
	if in := t.root; in != nil {
		for h := t.height; h > 1; h-- {
			in = in.kids[lowerBound(in.keys[:in.n-1], k)]
		}
		l = in.leaves[lowerBound(in.keys[:in.n-1], k)]
	}
	return l, lowerBound(l.key[:l.n], k)
}

// Probe enumerates stored tuples with Key in [probe.Key-width,
// probe.Key+width]: the own tree's in key order, then the segment's,
// read under the line tree's read lock.
func (o *OrderedIndex) Probe(probe Tuple, fn func(Tuple)) {
	o.probe(probe, o.width, anyRow, fn)
	if lt := o.line; lt != nil {
		lt.mu.RLock()
		defer lt.mu.RUnlock()
		lt.t.probe(probe, o.width, belowMark(o.mark.w), fn)
	}
}

// probe calls fn with every row whose meta word is below lim and whose
// key is within width of probe's, in key order.
func (t *ordTree) probe(probe Tuple, width int64, lim uint64, fn func(Tuple)) {
	if t.n == 0 {
		return
	}
	lo, hi := bandBounds(probe.Key, width)
	l, pos := t.seek(lo)
	for ; l != nil; l, pos = l.next, 0 {
		for ; pos < l.n; pos++ {
			if l.key[pos] > hi {
				return
			}
			if l.meta[pos] < lim {
				fn(l.at(pos))
			}
		}
	}
}

// ProbeBatchCollect probes every tuple of ps in order, appending
// oriented predicate-passing pairs to *out: against the own tree, then
// against the segment, under the line tree's read lock, which the
// whole run holds. Each probe is one descent and one sweep; every
// match is materialized straight into its output Pair slot (truncated
// again if the predicate rejects it). For a residual-free band
// predicate of the index's own width the range already is the
// predicate, so only dummies are rejected — a dummy probe before the
// descent, a dummy match from its meta word — and Predicate.Matches
// never runs.
func (o *OrderedIndex) ProbeBatchCollect(ps []Tuple, rel matrix.Side, p Predicate, out *[]Pair) {
	plainBand := p.Kind == Band && p.Width == o.width && p.Residual == nil
	o.collect(ps, rel, p, o.width, plainBand, anyRow, out)
	if lt := o.line; lt != nil {
		lt.mu.RLock()
		lt.t.collect(ps, rel, p, o.width, plainBand, belowMark(o.mark.w), out)
		lt.mu.RUnlock()
	}
}

// collect is ProbeBatchCollect over one tree's rows whose meta words
// are below lim: a segment's sweep passes over the rows at or past its
// watermark, which are still in the reader's inbox.
func (t *ordTree) collect(ps []Tuple, rel matrix.Side, p Predicate, width int64, plainBand bool, lim uint64, out *[]Pair) {
	if t.n == 0 {
		return
	}
	buf := *out
	for i := range ps {
		probe := &ps[i]
		if plainBand && probe.Dummy {
			continue
		}
		lo, hi := bandBounds(probe.Key, width)
		l, pos := t.seek(lo)
	sweep:
		for ; l != nil; l, pos = l.next, 0 {
			for ; pos < l.n; pos++ {
				if l.key[pos] > hi {
					break sweep
				}
				m := l.meta[pos]
				if m >= lim || plainBand && metaDummy(m) {
					continue
				}
				var pr *Pair
				var stored *Tuple
				buf, pr, stored = pairSlot(buf, probe, rel)
				l.atInto(pos, m, stored)
				if !plainBand && !p.Matches(pr.R, pr.S) {
					buf = buf[:len(buf)-1]
				}
			}
		}
	}
	*out = buf
}

// Scan visits all stored tuples in key order, ties in insertion order.
func (o *OrderedIndex) Scan(fn func(Tuple) bool) {
	o.scanRows(func(l *ordLeaf, pos int) bool { return fn(l.at(pos)) })
}

// scanRows calls fn with the leaf and position of every row the index
// holds, in Scan order, until fn returns false: the own tree and the
// segment merged (mergeRows), under the line tree's read lock. fn must
// not block: the line's writer waits on the lock.
func (o *OrderedIndex) scanRows(fn func(l *ordLeaf, pos int) bool) {
	var seg ordCursor
	if lt := o.line; lt != nil {
		lt.mu.RLock()
		defer lt.mu.RUnlock()
		seg = ordCursor{l: lt.t.head, lim: belowMark(o.mark.w)}
	}
	mergeRows(ordCursor{l: o.head, lim: anyRow}, seg, fn)
}

// ordCursor walks a leaf chain in key order over the rows whose meta
// words are below lim.
type ordCursor struct {
	l   *ordLeaf
	pos int
	lim uint64
}

// valid moves the cursor onto its next row below lim, if it is not on
// one, and reports whether there is one.
func (c *ordCursor) valid() bool {
	for c.l != nil {
		for ; c.pos < c.l.n; c.pos++ {
			if c.l.meta[c.pos] < c.lim {
				return true
			}
		}
		c.l, c.pos = c.l.next, 0
	}
	return false
}

// mergeRows calls fn with the rows of a and b merged in key order, a's
// first among equal keys, until fn returns false: O(n + m), one pass
// over both chains.
func mergeRows(a, b ordCursor, fn func(l *ordLeaf, pos int) bool) {
	for {
		okA, okB := a.valid(), b.valid()
		c := &b
		switch {
		case okA && (!okB || a.l.key[a.pos] <= b.l.key[b.pos]):
			c = &a
		case !okB:
			return
		}
		if !fn(c.l, c.pos) {
			return
		}
		c.pos++
	}
}

// ordBuilder packs a key-ordered tuple stream into a fresh tree, left
// to right: leaves fill to ordBulkFill, then finish stacks inner levels
// on them. It is the one bulk path behind Retain, MergeFrom, a
// segment's fold and snapshot restore.
type ordBuilder struct {
	t      *ordTree // the empty tree being built
	leaves []*ordLeaf
}

// tail returns the leaf the next tuple goes to, starting a new one
// once the current one holds ordBulkFill.
func (b *ordBuilder) tail() *ordLeaf {
	if k := len(b.leaves); k > 0 && b.leaves[k-1].n < ordBulkFill {
		return b.leaves[k-1]
	}
	l := b.t.newLeaf()
	if k := len(b.leaves); k > 0 {
		b.leaves[k-1].next = l
	}
	b.leaves = append(b.leaves, l)
	return l
}

// add appends t; the stream must be in key order.
func (b *ordBuilder) add(t *Tuple) {
	l := b.tail()
	l.set(l.n, t, t.metaWord())
	l.n++
	b.t.n++
}

// addFrom appends position i of src.
func (b *ordBuilder) addFrom(src *ordLeaf, i int) {
	b.tail().copyIn(src, i)
	b.t.n++
}

// finish stacks inner levels on the built leaves, ordInnerFill children
// per node, and installs the tree.
func (b *ordBuilder) finish() {
	t := b.t
	if len(b.leaves) == 0 {
		return
	}
	t.head = b.leaves[0]
	if len(b.leaves) == 1 {
		return
	}
	var level []*ordInner
	var lows []int64 // each node's smallest key: its left separator
	for i := 0; i < len(b.leaves); i += ordInnerFill {
		in := t.newInner()
		for j, l := range b.leaves[i:min(i+ordInnerFill, len(b.leaves))] {
			in.leaves[j] = l
			if j > 0 {
				in.keys[j-1] = l.key[0]
			}
			in.n++
		}
		level = append(level, in)
		lows = append(lows, b.leaves[i].key[0])
	}
	t.height = 1
	for len(level) > 1 {
		var up []*ordInner
		var upLows []int64
		for i := 0; i < len(level); i += ordInnerFill {
			in := t.newInner()
			for j, kid := range level[i:min(i+ordInnerFill, len(level))] {
				in.kids[j] = kid
				if j > 0 {
					in.keys[j-1] = lows[i+j]
				}
				in.n++
			}
			up = append(up, in)
			upLows = append(upLows, lows[i])
		}
		level, lows = up, upLows
		t.height++
	}
	t.root = level[0]
}

// Retain keeps only the tuples whose u is in keep, rebuilding the own
// tree in bulk: migration discards remove large fractions of the
// state, so one left-to-right pack of the survivors beats item-wise
// deletion and leaves every leaf at the bulk fill. Retain is the
// migration discard, so it leaves an index that reads no segment: the
// segment's surviving rows are packed into the own tree with the rest.
// A counting pass over the u columns runs first so the common
// nothing-removed case (the non-splitting relation of a migration) of
// an index without a segment costs no allocation.
func (o *OrderedIndex) Retain(keep matrix.Top) int {
	removed := 0
	if !keep.All() {
		o.scanRows(func(l *ordLeaf, pos int) bool {
			if !keep.Has(l.u[pos]) {
				removed++
			}
			return true
		})
	}
	if removed > 0 || o.line != nil {
		o.rebuild(keep)
	}
	return removed
}

// rebuild packs the rows the index holds whose u is in keep, in Scan
// order, into a fresh own tree and drops the segment: the one path from
// a segment back to the own tree.
func (o *OrderedIndex) rebuild(keep matrix.Top) {
	var fresh ordTree
	b := ordBuilder{t: &fresh}
	var bytes int64
	o.scanRows(func(l *ordLeaf, pos int) bool {
		if keep.Has(l.u[pos]) {
			b.addFrom(l, pos)
			bytes += metaBytes(l.meta[pos], l.payloadAt(pos))
		}
		return true
	})
	b.finish()
	o.ordTree, o.bytes, o.line, o.mark = fresh, bytes, nil, lineMark{}
}

// MergeFrom bulk-merges every tuple of src into o, consuming src (src
// must not be used afterward). Both fold their segments first; then
// the two leaf chains merge in one left-to-right pass, O(n + m), into
// a freshly packed tree, and among equal keys o's tuples precede src's,
// exactly as inserting src's tuples after o's would order them. An
// empty side costs nothing more: the other tree is taken over as it
// stands.
func (o *OrderedIndex) MergeFrom(src *OrderedIndex) {
	o.unshare()
	src.unshare()
	switch {
	case src.n == 0:
	case o.n == 0:
		o.ordTree, o.bytes = src.ordTree, src.bytes
	default:
		var fresh ordTree
		b := ordBuilder{t: &fresh}
		mergeRows(ordCursor{l: o.head, lim: anyRow}, ordCursor{l: src.head, lim: anyRow}, func(l *ordLeaf, pos int) bool {
			b.addFrom(l, pos)
			return true
		})
		b.finish()
		o.ordTree, o.bytes = fresh, o.bytes+src.bytes
	}
	*src = OrderedIndex{width: src.width}
}

// load bulk-builds the empty index from ts, which must be in key order
// (a snapshot record is written by Scan).
func (o *OrderedIndex) load(ts []Tuple) error {
	b := ordBuilder{t: &o.ordTree}
	var bytes int64
	for i := range ts {
		if i > 0 && ts[i].Key < ts[i-1].Key {
			*o = OrderedIndex{width: o.width}
			return fmt.Errorf("join: ordered snapshot record breaks key order at tuple %d", i)
		}
		b.add(&ts[i])
		bytes += ts[i].Bytes()
	}
	b.finish()
	o.bytes = bytes
	return nil
}

// LineTree is the ordered index of one first-epoch band grid line in
// one process, for the line's in-process joiners: the band counterpart
// of a line's SlotIndex. The line's writer — the reshuffler holding the
// line's lock — inserts each shipped body once (Append), every row
// tagged with its line position, and publishes the body's positions as
// a Window; each joiner that took every window of the line since its
// first reads the tree as of its own watermark (a segment of its
// OrderedIndex) instead of inserting the rows into its own tree. So a
// row replicated to the m joiners of its row is inserted and held once
// per process, not m times.
//
// An insert reshapes leaves in place, so the tree is guarded by a
// read-write lock: the writer inserts a body under the write lock, and
// a reader holds the read lock for a probe sub-run, a capture's Scan
// or a fold, none of which block while they hold it. Rows at or past a
// reader's watermark are still in its inbox; its reads pass over them
// (belowMark). The line position lives in the meta word's spare bits
// (linePosShift), so a line tree's leaves keep the own tree's size
// class.
type LineTree struct {
	mu sync.RWMutex
	t  ordTree
	// end is the line position the last published window ended at, and
	// stopped reports that the line ran out of positions; only the
	// writer touches them.
	end     uint32
	stopped bool
	sharers int64
	// leafBytes and innerBytes are the tree's resident bytes, written
	// by the writer and read by the readers' Footprint.
	leafBytes, innerBytes atomic.Int64
}

// NewLineTree returns an empty line tree for a line of sharers
// in-process readers.
func NewLineTree(sharers int) *LineTree {
	return &LineTree{sharers: int64(max(sharers, 1))}
}

// Append inserts run into the tree under the write lock and returns the
// Window naming its rows: their line positions start at at, and prev —
// where the line's previous window ended — equals at, since a line's
// positions are contiguous. An empty run gets the zero Window, and so
// does every run once the line would pass maxLineRows: its readers then
// fold their segments and store the rest of the line themselves.
func (lt *LineTree) Append(run []Tuple) Window {
	n := uint32(len(run))
	if n == 0 {
		return Window{}
	}
	if lt.stopped || uint64(lt.end)+uint64(n) > uint64(maxLineRows) {
		lt.stopped = true
		return Window{}
	}
	lt.mu.Lock()
	for i := range run {
		lt.t.insert(&run[i], run[i].metaWord()|uint64(lt.end+uint32(i))<<linePosShift)
	}
	lt.mu.Unlock()
	leaves, inners := lt.t.footprint()
	lt.leafBytes.Store(leaves)
	lt.innerBytes.Store(inners)
	w := Window{tree: lt, hi: int32(n), at: lt.end, prev: lt.end}
	lt.end += n
	return w
}

// share returns one reader's share of the tree's resident bytes: its
// leaves and inner nodes, divided among the line's readers.
func (lt *LineTree) share() (leafBytes, innerBytes int64) {
	return lt.leafBytes.Load() / lt.sharers, lt.innerBytes.Load() / lt.sharers
}
