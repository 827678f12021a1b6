package join

import (
	"unsafe"

	"repro/internal/matrix"
)

// OrderedIndex is a B-tree keyed on Tuple.Key supporting range probes,
// used for band joins (the paper's joiners use "balanced binary trees
// for band joins", §5). A B-tree is used instead of a binary tree for
// cache friendliness; the interface contract is identical.
//
// Tuples live in the shared columnar arena; tree nodes hold only
// 16-byte (key, arena offset) items, so node splits and insertion
// shifts move a fifth of the bytes the old tuple-bearing nodes did,
// and range scans materialize full tuples only for keys inside the
// probed band.
type OrderedIndex struct {
	width int64
	root  *btreeNode
	arena tupleArena
	bytes int64
}

const btreeDegree = 32 // max children; max keys = 2*degree - 1

// ordItem is one B-tree entry: the sort key and the arena offset of
// the stored tuple.
type ordItem struct {
	key int64
	off int32
}

type btreeNode struct {
	items    []ordItem    // sorted by key (stable by insertion among equals)
	children []*btreeNode // len(children) == len(items)+1 for internal nodes
}

func (n *btreeNode) leaf() bool { return len(n.children) == 0 }

// NewOrderedIndex returns an empty ordered index whose Probe matches
// stored keys within +-width of the probe key.
func NewOrderedIndex(width int64) *OrderedIndex {
	return &OrderedIndex{width: width, root: &btreeNode{}}
}

// Len returns the number of stored tuples.
func (o *OrderedIndex) Len() int { return o.arena.n }

// Bytes returns the accounted stored volume.
func (o *OrderedIndex) Bytes() int64 { return o.bytes }

// Footprint reports the arena blocks and the tree's items, one 16-byte
// (key, offset) item per stored tuple; node slack and child pointers
// are not tracked.
func (o *OrderedIndex) Footprint() (arenaBytes, directoryBytes int64) {
	return int64(len(o.arena.chunks)) * chunkBytes, int64(o.arena.n) * int64(unsafe.Sizeof(ordItem{}))
}

// Insert stores t, keeping keys ordered.
func (o *OrderedIndex) Insert(t Tuple) {
	o.bytes += t.Bytes()
	off := o.arena.append(&t)
	if len(o.root.items) == 2*btreeDegree-1 {
		old := o.root
		o.root = &btreeNode{children: []*btreeNode{old}}
		o.root.splitChild(0)
	}
	o.root.insertNonFull(ordItem{key: t.Key, off: off})
}

// InsertBatch stores every tuple of ts. Tree insertion cost is
// dominated by the descent, so the batch form is a plain loop.
func (o *OrderedIndex) InsertBatch(ts []Tuple) {
	for i := range ts {
		o.Insert(ts[i])
	}
}

// Reserve preallocates arena blocks for about n stored tuples; tree
// nodes grow on demand.
func (o *OrderedIndex) Reserve(n int) { o.arena.reserve(n) }

// splitChild splits the full child at index i, lifting its median item
// into n.
func (n *btreeNode) splitChild(i int) {
	child := n.children[i]
	mid := btreeDegree - 1
	median := child.items[mid]

	right := &btreeNode{}
	right.items = append(right.items, child.items[mid+1:]...)
	child.items = child.items[:mid]
	if !child.leaf() {
		right.children = append(right.children, child.children[mid+1:]...)
		child.children = child.children[:mid+1]
	}

	n.items = append(n.items, ordItem{})
	copy(n.items[i+1:], n.items[i:])
	n.items[i] = median

	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

func (n *btreeNode) insertNonFull(it ordItem) {
	// Find the rightmost position among equal keys so insertion order
	// is preserved for duplicates.
	i := upperBound(n.items, it.key)
	if n.leaf() {
		n.items = append(n.items, ordItem{})
		copy(n.items[i+1:], n.items[i:])
		n.items[i] = it
		return
	}
	if len(n.children[i].items) == 2*btreeDegree-1 {
		n.splitChild(i)
		if it.key > n.items[i].key {
			i++
		}
	}
	n.children[i].insertNonFull(it)
}

// upperBound returns the first index whose key is strictly greater
// than k.
func upperBound(items []ordItem, k int64) int {
	lo, hi := 0, len(items)
	for lo < hi {
		mid := (lo + hi) / 2
		if items[mid].key <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lowerBound returns the first index whose key is >= k.
func lowerBound(items []ordItem, k int64) int {
	lo, hi := 0, len(items)
	for lo < hi {
		mid := (lo + hi) / 2
		if items[mid].key < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Probe enumerates stored tuples with Key in [probe.Key-width,
// probe.Key+width].
func (o *OrderedIndex) Probe(probe Tuple, fn func(Tuple)) {
	lo := probe.Key - o.width
	hi := probe.Key + o.width
	o.rangeScan(o.root, lo, hi, fn)
}

// rangeScan walks the subtree under n, materializing every tuple with
// key in [lo, hi] from the arena.
func (o *OrderedIndex) rangeScan(n *btreeNode, lo, hi int64, fn func(Tuple)) {
	i := lowerBound(n.items, lo)
	if n.leaf() {
		for ; i < len(n.items) && n.items[i].key <= hi; i++ {
			fn(o.arena.at(n.items[i].off))
		}
		return
	}
	for ; i < len(n.items) && n.items[i].key <= hi; i++ {
		o.rangeScan(n.children[i], lo, hi, fn)
		fn(o.arena.at(n.items[i].off))
	}
	o.rangeScan(n.children[i], lo, hi, fn)
}

// ProbeBatchCollect probes every tuple of ps in order, appending
// oriented predicate-passing pairs to *out. One relay closure serves
// the whole batch; match filtering and pair construction happen in the
// shared collectPair helper.
func (o *OrderedIndex) ProbeBatchCollect(ps []Tuple, rel matrix.Side, p Predicate, out *[]Pair) {
	var probe Tuple
	relay := func(t Tuple) { collectPair(probe, t, rel, p, out) }
	for i := range ps {
		probe = ps[i]
		o.rangeScan(o.root, probe.Key-o.width, probe.Key+o.width, relay)
	}
}

// Scan visits all stored tuples in key order.
func (o *OrderedIndex) Scan(fn func(Tuple) bool) { o.treeScan(o.root, fn) }

func (o *OrderedIndex) treeScan(n *btreeNode, fn func(Tuple) bool) bool {
	for i, it := range n.items {
		if !n.leaf() && !o.treeScan(n.children[i], fn) {
			return false
		}
		if !fn(o.arena.at(it.off)) {
			return false
		}
	}
	if !n.leaf() {
		return o.treeScan(n.children[len(n.items)], fn)
	}
	return true
}

// Retain keeps only tuples passing keep. The tree and arena are
// rebuilt in bulk: migration discards remove large contiguous
// fractions of the state, so a rebuild is both simpler and faster than
// item-wise deletion.
func (o *OrderedIndex) Retain(keep func(Tuple) bool) int {
	kept := make([]Tuple, 0, o.Len())
	o.Scan(func(t Tuple) bool {
		if keep(t) {
			kept = append(kept, t)
		}
		return true
	})
	removed := o.Len() - len(kept)
	if removed == 0 {
		return 0
	}
	o.root = &btreeNode{}
	o.arena = tupleArena{}
	o.bytes = 0
	o.arena.reserve(len(kept))
	// Keys are already sorted; insertion keeps the tree balanced
	// enough (right-leaning fill) for the migration use case.
	for _, t := range kept {
		o.Insert(t)
	}
	return removed
}
