package join

import (
	"fmt"
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
// Among equal keys tuples keep their insertion order: an insert lands
// after every stored tuple with the same key, so Scan is key order with
// ties in insertion order, and bulk builds (Retain, MergeFrom, snapshot
// restore) preserve it.
//
// Nothing is ever deleted in place: Retain rebuilds, so nodes need no
// minimum fill, and a bulk build packs leaves to ordBulkFill.
type OrderedIndex struct {
	width int64
	// root is nil while the whole tree is the single leaf head.
	root *ordInner
	// head is the leftmost leaf, where Scan and the leaf chain start;
	// nil while the index is empty.
	head *ordLeaf
	// height counts inner levels: root's children are leaves when 1.
	height int
	n      int
	bytes  int64
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
// allocated on the first payload-carrying tuple the leaf receives.
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

// NewOrderedIndex returns an empty ordered index whose Probe matches
// stored keys within +-width of the probe key.
func NewOrderedIndex(width int64) *OrderedIndex {
	return &OrderedIndex{width: width}
}

// Len returns the number of stored tuples.
func (o *OrderedIndex) Len() int { return o.n }

// Bytes returns the accounted stored volume.
func (o *OrderedIndex) Bytes() int64 { return o.bytes }

// Footprint reports the leaves as arena bytes and the inner nodes as
// directory bytes, each as the allocator rounds it. Payload columns,
// like the arena's, are not counted.
func (o *OrderedIndex) Footprint() (arenaBytes, directoryBytes int64) {
	return int64(o.leaves) * ordLeafBytes, int64(o.inners) * ordInnerBytes
}

func (o *OrderedIndex) newLeaf() *ordLeaf {
	o.leaves++
	return &ordLeaf{}
}

func (o *OrderedIndex) newInner() *ordInner {
	o.inners++
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

// set writes t into position pos, overwriting it.
func (l *ordLeaf) set(pos int, t *Tuple) {
	l.key[pos] = t.Key
	l.aux[pos] = t.Aux
	l.u[pos] = t.U
	l.seq[pos] = t.Seq
	l.meta[pos] = t.metaWord()
	if l.payload != nil {
		l.payload[pos] = t.Payload
	} else if t.Payload != nil {
		l.payload = new([ordLeafCap][]byte)
		l.payload[pos] = t.Payload
	}
}

// insertAt shifts positions [pos, n) one to the right and writes t at
// pos. The leaf must not be full.
func (l *ordLeaf) insertAt(pos int, t *Tuple) {
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
	l.set(pos, t)
	l.n++
}

// copyIn appends position i of src to l, column by column, without
// materializing the tuple. l must not be full.
func (l *ordLeaf) copyIn(src *ordLeaf, i int) {
	pos := l.n
	l.key[pos] = src.key[i]
	l.aux[pos] = src.aux[i]
	l.u[pos] = src.u[i]
	l.seq[pos] = src.seq[i]
	l.meta[pos] = src.meta[i]
	if src.payload != nil && src.payload[i] != nil {
		if l.payload == nil {
			l.payload = new([ordLeafCap][]byte)
		}
		l.payload[pos] = src.payload[i]
	}
	l.n++
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
	if l.payload != nil {
		dst.Payload = l.payload[pos]
	} else {
		dst.Payload = nil
	}
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

// Insert stores t after every stored tuple with the same key.
func (o *OrderedIndex) Insert(t Tuple) { o.insert(&t) }

// InsertBatch stores every tuple of ts, in order. Insertion cost is
// the descent and one leaf's shift, so the batch form is a plain loop.
func (o *OrderedIndex) InsertBatch(ts []Tuple) {
	for i := range ts {
		o.insert(&ts[i])
	}
}

func (o *OrderedIndex) insert(t *Tuple) {
	o.n++
	o.bytes += t.Bytes()
	if o.head == nil {
		o.head = o.newLeaf()
	}
	var path [ordMaxHeight]ordStep
	l := o.head
	if in := o.root; in != nil {
		for h := o.height - 1; ; h-- {
			i := upperBound(in.keys[:in.n-1], t.Key)
			path[h] = ordStep{in, i}
			if h == 0 {
				l = in.leaves[i]
				break
			}
			in = in.kids[i]
		}
	}
	pos := upperBound(l.key[:l.n], t.Key)
	if l.n < ordLeafCap {
		l.insertAt(pos, t)
		return
	}
	r := o.splitLeaf(l)
	if pos <= l.n {
		l.insertAt(pos, t)
	} else {
		r.insertAt(pos-l.n, t)
	}
	o.lift(path[:o.height], r.key[0], r, nil)
}

// splitLeaf moves the upper half of the full leaf l into a new right
// sibling and returns it.
func (o *OrderedIndex) splitLeaf(l *ordLeaf) *ordLeaf {
	r := o.newLeaf()
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
func (o *OrderedIndex) splitInner(in *ordInner) (*ordInner, int64) {
	r := o.newInner()
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
func (o *OrderedIndex) lift(path []ordStep, sep int64, leaf *ordLeaf, kid *ordInner) {
	for _, st := range path {
		in, i := st.node, st.i
		if in.n < ordFan {
			in.insertKid(i, sep, leaf, kid)
			return
		}
		r, up := o.splitInner(in)
		if i < in.n {
			in.insertKid(i, sep, leaf, kid)
		} else {
			r.insertKid(i-in.n, sep, leaf, kid)
		}
		sep, leaf, kid = up, nil, r
	}
	root := o.newInner()
	root.n = 1
	if o.root == nil {
		root.leaves[0] = o.head
	} else {
		root.kids[0] = o.root
	}
	root.insertKid(0, sep, leaf, kid)
	o.root = root
	o.height++
}

// seek returns the leaf holding the first stored key >= k and its
// position there. The position may equal the leaf's fill, in which case
// the key, if any, opens the next leaf. The index must not be empty.
func (o *OrderedIndex) seek(k int64) (*ordLeaf, int) {
	l := o.head
	if in := o.root; in != nil {
		for h := o.height; h > 1; h-- {
			in = in.kids[lowerBound(in.keys[:in.n-1], k)]
		}
		l = in.leaves[lowerBound(in.keys[:in.n-1], k)]
	}
	return l, lowerBound(l.key[:l.n], k)
}

// Probe enumerates stored tuples with Key in [probe.Key-width,
// probe.Key+width], in key order.
func (o *OrderedIndex) Probe(probe Tuple, fn func(Tuple)) {
	if o.n == 0 {
		return
	}
	hi := probe.Key + o.width
	l, pos := o.seek(probe.Key - o.width)
	for ; l != nil; l, pos = l.next, 0 {
		for ; pos < l.n; pos++ {
			if l.key[pos] > hi {
				return
			}
			fn(l.at(pos))
		}
	}
}

// ProbeBatchCollect probes every tuple of ps in order, appending
// oriented predicate-passing pairs to *out. Each probe is one descent
// and one sweep; every match is materialized straight into its output
// Pair slot (truncated again if the predicate rejects it). For a
// residual-free band predicate of the index's own width the range
// already is the predicate, so only dummies are rejected — a dummy
// probe before the descent, a dummy match from its meta word — and
// Predicate.Matches never runs.
func (o *OrderedIndex) ProbeBatchCollect(ps []Tuple, rel matrix.Side, p Predicate, out *[]Pair) {
	if o.n == 0 {
		return
	}
	plainBand := p.Kind == Band && p.Width == o.width && p.Residual == nil
	buf := *out
	for i := range ps {
		probe := &ps[i]
		if plainBand && probe.Dummy {
			continue
		}
		hi := probe.Key + o.width
		l, pos := o.seek(probe.Key - o.width)
	sweep:
		for ; l != nil; l, pos = l.next, 0 {
			for ; pos < l.n; pos++ {
				if l.key[pos] > hi {
					break sweep
				}
				m := l.meta[pos]
				if plainBand && metaDummy(m) {
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
	for l := o.head; l != nil; l = l.next {
		for pos := 0; pos < l.n; pos++ {
			if !fn(l.at(pos)) {
				return
			}
		}
	}
}

// ordBuilder packs a key-ordered tuple stream into a fresh tree, left
// to right: leaves fill to ordBulkFill, then finish stacks inner levels
// on them. It is the one bulk path behind Retain, MergeFrom and
// snapshot restore.
type ordBuilder struct {
	o      *OrderedIndex // the empty index being built
	leaves []*ordLeaf
}

// tail returns the leaf the next tuple goes to, starting a new one
// once the current one holds ordBulkFill.
func (b *ordBuilder) tail() *ordLeaf {
	if k := len(b.leaves); k > 0 && b.leaves[k-1].n < ordBulkFill {
		return b.leaves[k-1]
	}
	l := b.o.newLeaf()
	if k := len(b.leaves); k > 0 {
		b.leaves[k-1].next = l
	}
	b.leaves = append(b.leaves, l)
	return l
}

// add appends t; the stream must be in key order.
func (b *ordBuilder) add(t *Tuple) {
	l := b.tail()
	l.set(l.n, t)
	l.n++
	b.o.n++
}

// addFrom appends position i of src.
func (b *ordBuilder) addFrom(src *ordLeaf, i int) {
	b.tail().copyIn(src, i)
	b.o.n++
}

// finish stacks inner levels on the built leaves, ordInnerFill children
// per node, and installs the tree; byte volume is the caller's.
func (b *ordBuilder) finish() {
	o := b.o
	if len(b.leaves) == 0 {
		return
	}
	o.head = b.leaves[0]
	if len(b.leaves) == 1 {
		return
	}
	var level []*ordInner
	var lows []int64 // each node's smallest key: its left separator
	for i := 0; i < len(b.leaves); i += ordInnerFill {
		in := o.newInner()
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
	o.height = 1
	for len(level) > 1 {
		var up []*ordInner
		var upLows []int64
		for i := 0; i < len(level); i += ordInnerFill {
			in := o.newInner()
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
		o.height++
	}
	o.root = level[0]
}

// Retain keeps only the tuples whose u is in keep, rebuilding the tree
// in bulk: migration discards remove large fractions of the state, so
// one left-to-right pack of the survivors beats item-wise deletion and
// leaves every leaf at the bulk fill. A counting pass over the u
// columns runs first so the common nothing-removed case (the
// non-splitting relation of a migration) costs no allocation.
func (o *OrderedIndex) Retain(keep matrix.Top) int {
	if keep.All() {
		return 0
	}
	removed := 0
	for l := o.head; l != nil; l = l.next {
		for _, u := range l.u[:l.n] {
			if !keep.Has(u) {
				removed++
			}
		}
	}
	if removed == 0 {
		return 0
	}
	fresh := NewOrderedIndex(o.width)
	b := ordBuilder{o: fresh}
	for l := o.head; l != nil; l = l.next {
		for pos, u := range l.u[:l.n] {
			if !keep.Has(u) {
				continue
			}
			b.addFrom(l, pos)
			var p []byte
			if l.payload != nil {
				p = l.payload[pos]
			}
			fresh.bytes += metaBytes(l.meta[pos], p)
		}
	}
	b.finish()
	*o = *fresh
	return removed
}

// MergeFrom bulk-merges every tuple of src into o, consuming src (src
// must not be used afterward). The two leaf chains merge in one
// left-to-right pass, O(n + m), into a freshly packed tree; among equal
// keys o's tuples precede src's, exactly as inserting src's tuples
// after o's would order them. An empty side costs nothing: the other
// tree is taken over as it stands.
func (o *OrderedIndex) MergeFrom(src *OrderedIndex) {
	switch {
	case src.n == 0:
	case o.n == 0:
		src.width = o.width
		*o = *src
	default:
		fresh := NewOrderedIndex(o.width)
		b := ordBuilder{o: fresh}
		a, i := o.head, 0
		c, j := src.head, 0
		for {
			for a != nil && i == a.n {
				a, i = a.next, 0
			}
			for c != nil && j == c.n {
				c, j = c.next, 0
			}
			if a == nil && c == nil {
				break
			}
			if c == nil || (a != nil && a.key[i] <= c.key[j]) {
				b.addFrom(a, i)
				i++
			} else {
				b.addFrom(c, j)
				j++
			}
		}
		b.finish()
		fresh.bytes = o.bytes + src.bytes
		*o = *fresh
	}
	*src = OrderedIndex{width: src.width}
}

// load bulk-builds the empty index from ts, which must be in key order
// (a snapshot record is written by Scan).
func (o *OrderedIndex) load(ts []Tuple) error {
	b := ordBuilder{o: o}
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
