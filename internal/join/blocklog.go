package join

import "unsafe"

// BlockLog is an ordered run of rows kept in arena blocks and cut from
// either end: a checkpointing operator's replay log keeps each source
// ring's accepted tuples in one until a covering checkpoint commits.
// It writes the block layout the arena does (colChunk, arena.go): a
// row's key, aux and seq, 24 bytes, with the u and meta word its
// block's header derives. A log's block derives u zero and one meta
// word; it gains a u column once a row carries a nonzero U, a meta
// column once its rows differ in meta word, and a payload column once
// a row carries a payload. Nothing else reads a log's blocks, so a
// block gains a column in place, and a log that has needed a u or meta
// column opens its later blocks with it. Every block but the newest
// holds arenaChunk written rows; the oldest one's first head rows are
// cut. A row that is cut from either end keeps no payload reachable.
//
// Blocks and their u or meta columns are allocated logGroup at a time.
// The zero value is an empty log; a BlockLog is not safe for
// concurrent use.
type BlockLog struct {
	blocks []*colChunk
	// head counts the rows cut from blocks[0]; hi is the fill of the
	// newest block; n counts the rows held.
	head, hi int32
	n        int
	// bytes counts the blocks held (blockLogBytes) and the spare ones.
	bytes int64
	// uCol and metaCol report that a block of the log has needed a u or
	// meta column: later blocks open with it, as a BlockWriter's do.
	uCol, metaCol bool
	// spare and spareCols are what is left of the newest group of
	// blocks and of u or meta columns.
	spare     []colChunk
	spareCols [][arenaChunk]uint64
}

// logGroup is how many blocks, and how many u or meta columns, a log
// allocates at a time, touching every page of the group as it does. A
// block's first row lands on four fresh pages at once — its key, aux
// and seq columns and its meta column — so a log that allocated block
// by block would fault them in together on one append in every 512
// rows, which on ckpt_equi (2 CPUs) doubled the feeder's p99 send
// time; a group takes them on one append in 8192 rows.
const logGroup = 16

// Sizes behind Bytes: a block's share of its group, which the heap
// rounds up to whole 8 KB pages only, and a payload column,
// arenaChunk slice headers (a size class exactly). A group of columns
// fills whole pages exactly.
const (
	logBlockBytes   = (logGroup*int64(unsafe.Sizeof(colChunk{})) + 8191) / 8192 * 8192 / logGroup
	payloadColBytes = 24 * arenaChunk
)

// blockLogBytes is what the allocator holds for c and its columns,
// payload bytes aside.
func blockLogBytes(c *colChunk) int64 {
	n := logBlockBytes
	if c.u != nil {
		n += colBytes
	}
	if c.meta != nil {
		n += colBytes
	}
	if c.payload != nil {
		n += payloadColBytes
	}
	return n
}

// newBlock returns an empty block from the newest group, with meta as
// its header's meta word and every u or meta column the log has needed
// before.
func (l *BlockLog) newBlock(meta uint64) *colChunk {
	if len(l.spare) == 0 {
		l.spare = make([]colChunk, logGroup)
		for i := range l.spare {
			c := &l.spare[i]
			touch(&c.key)
			touch(&c.aux)
			touch(&c.seq)
		}
		l.bytes += logGroup * logBlockBytes
	}
	c := &l.spare[0]
	l.spare = l.spare[1:]
	c.sharers, c.meta0 = 1, meta
	if l.uCol {
		c.u = l.newColumn()
	}
	if l.metaCol {
		c.meta = l.newColumn()
	}
	return c
}

// newColumn returns an empty u or meta column from the newest group of
// columns.
func (l *BlockLog) newColumn() *[arenaChunk]uint64 {
	if len(l.spareCols) == 0 {
		l.spareCols = make([][arenaChunk]uint64, logGroup)
		for i := range l.spareCols {
			touch(&l.spareCols[i])
		}
		l.bytes += logGroup * colBytes
	}
	col := &l.spareCols[0]
	l.spareCols = l.spareCols[1:]
	return col
}

// touch writes the first and the last word of a column, so that each
// page the column spans is faulted in.
func touch[T int64 | uint64](col *[arenaChunk]T) {
	col[0], col[arenaChunk-1] = 0, 0
}

// Len returns the number of rows held.
func (l *BlockLog) Len() int { return l.n }

// Bytes returns what the allocator holds for the log's blocks and
// their u, meta and payload columns, the spare ones of its newest
// groups included and the payload bytes aside. A dropped block is no
// longer counted, though its group stays allocated until every block
// of the group is dropped.
func (l *BlockLog) Bytes() int64 { return l.bytes }

// Append writes run after the rows held, in order, a block's worth of
// rows at a time.
func (l *BlockLog) Append(run []Tuple) {
	l.n += len(run)
	for len(run) > 0 {
		if len(l.blocks) == 0 || l.hi == arenaChunk {
			l.blocks = append(l.blocks, l.newBlock(run[0].metaWord()))
			l.hi = 0
		}
		k := min(len(run), int(arenaChunk-l.hi))
		l.put(l.blocks[len(l.blocks)-1], run[:k])
		l.hi += int32(k)
		run = run[k:]
	}
}

// put writes run as the rows of the newest block c from row l.hi on:
// the key, aux and seq columns and, in the same pass, what the rows ask
// of the header; then the u, meta and payload columns, c given any of
// them it lacks. The rows before l.hi read u zero and c's meta word.
func (l *BlockLog) put(c *colChunk, run []Tuple) {
	pos := l.hi
	key, aux, seq := c.key[pos:][:len(run)], c.aux[pos:][:len(run)], c.seq[pos:][:len(run)]
	var u, metaDiff uint64
	payloads := false
	for i := range run {
		t := &run[i]
		key[i], aux[i], seq[i] = t.Key, t.Aux, t.Seq
		u |= t.U
		metaDiff |= t.metaWord() ^ c.meta0
		payloads = payloads || t.Payload != nil
	}
	if u != 0 && c.u == nil {
		c.u, l.uCol = l.newColumn(), true
	}
	if metaDiff != 0 && c.meta == nil {
		col := l.newColumn()
		for i := range pos {
			col[i] = c.meta0
		}
		c.meta, l.metaCol = col, true
	}
	if payloads && c.payload == nil {
		c.payload = make([][]byte, arenaChunk)
		l.bytes += payloadColBytes
	}
	if c.u != nil {
		col := c.u[pos:][:len(run)]
		for i := range run {
			col[i] = run[i].U
		}
	}
	if c.meta != nil {
		col := c.meta[pos:][:len(run)]
		for i := range run {
			col[i] = run[i].metaWord()
		}
	}
	if c.payload != nil {
		col := c.payload[pos:][:len(run)]
		for i := range run {
			col[i] = run[i].Payload
		}
	}
}

// DropOldest cuts the oldest n rows (every row when n exceeds Len):
// blocks it empties are released, and a cut block's payload slots are
// cleared.
func (l *BlockLog) DropOldest(n int) {
	n = min(n, l.n)
	l.n -= n
	k := 0 // leading blocks cut whole
	for n > 0 {
		end := int32(arenaChunk)
		if k == len(l.blocks)-1 {
			end = l.hi
		}
		avail := int(end - l.head)
		if n < avail {
			l.blocks[k].clearPayload(l.head, l.head+int32(n))
			l.head += int32(n)
			break
		}
		n -= avail
		l.release(l.blocks[k])
		l.head = 0
		k++
	}
	if k > 0 {
		m := copy(l.blocks, l.blocks[k:])
		clear(l.blocks[m:])
		l.blocks = l.blocks[:m]
		if m == 0 {
			l.hi = 0
		}
	}
}

// DropNewest takes back the newest n rows (every row when n exceeds
// Len): blocks it empties are released, and the payload slots it takes
// back are cleared.
func (l *BlockLog) DropNewest(n int) {
	n = min(n, l.n)
	l.n -= n
	for n > 0 {
		last := len(l.blocks) - 1
		lo := int32(0)
		if last == 0 {
			lo = l.head
		}
		c := l.blocks[last]
		k := min(int32(n), l.hi-lo)
		c.clearPayload(l.hi-k, l.hi)
		l.hi -= k
		n -= int(k)
		if l.hi == lo {
			l.release(c)
			l.blocks[last] = nil
			l.blocks = l.blocks[:last]
			l.hi = arenaChunk
			if last == 0 {
				l.head, l.hi = 0, 0
			}
		}
	}
}

// release uncounts a block the log drops and lets go of its columns:
// its group stays allocated while another block of it is held, so the
// block must pin neither its payloads nor a group of columns.
func (l *BlockLog) release(c *colChunk) {
	l.bytes -= blockLogBytes(c)
	c.payload, c.u, c.meta = nil, nil, nil
}

// Read materializes the rows held from index from on, oldest first,
// into dst and returns how many it wrote: len(dst), or fewer when the
// log ends first.
func (l *BlockLog) Read(from int, dst []Tuple) int {
	if from < 0 || from >= l.n {
		return 0
	}
	n := min(len(dst), l.n-from)
	row := int(l.head) + from // row index across the blocks
	for i := 0; i < n; {
		c, pos := l.blocks[row>>arenaShift], int32(row&(arenaChunk-1))
		k := min(n-i, int(arenaChunk-pos))
		for j := range int32(k) {
			c.atIntoMeta(pos+j, c.metaAt(pos+j), &dst[i+int(j)])
		}
		i += k
		row += k
	}
	return n
}

// MaxSeq returns the largest seq of the rows held, reading only the seq
// columns, or 0 when the log is empty.
func (l *BlockLog) MaxSeq() uint64 {
	var m uint64
	for i, c := range l.blocks {
		lo, hi := int32(0), int32(arenaChunk)
		if i == 0 {
			lo = l.head
		}
		if i == len(l.blocks)-1 {
			hi = l.hi
		}
		for _, s := range c.seq[lo:hi] {
			m = max(m, s)
		}
	}
	return m
}

// Views lists the log's blocks, oldest first, each with the rows
// [Lo, Hi) of it the log holds: diagnostics and tests use it to see the
// log's shape.
func (l *BlockLog) Views() []BlockView {
	out := make([]BlockView, len(l.blocks))
	for i, c := range l.blocks {
		out[i] = BlockView{Block: c, Sharers: 1, Hi: arenaChunk}
	}
	if len(out) > 0 {
		out[0].Lo = int(l.head)
		out[len(out)-1].Hi = int(l.hi)
	}
	return out
}

// clearPayload drops the payloads of rows [lo, hi), if c has a payload
// column, so they pin nothing.
func (c *colChunk) clearPayload(lo, hi int32) {
	if c.payload != nil {
		clear(c.payload[lo:hi])
	}
}
