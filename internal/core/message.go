// Package core implements the paper's primary contribution: the
// intra-adaptive dataflow theta-join operator (§4 of Elseidy et al.,
// VLDB 2014). The operator consists of J joiner tasks and a set of
// reshuffler tasks, one of which doubles as the controller. It
// continuously re-optimizes its (n,m)-mapping via the 1.25-competitive
// migration-decision algorithm (Alg. 2), relocates state with the
// locality-aware pairwise exchange (Fig. 3), and keeps processing new
// tuples throughout migrations using the eventually-consistent epoch
// protocol (Alg. 3). Elastic 1-to-4 expansion (Fig. 5) is layered on
// the same machinery; a machine count that is not a power of two runs
// one grid on the largest power of two below it (Config.J).
package core

import (
	"repro/internal/join"
	"repro/internal/matrix"
)

// msgKind discriminates protocol messages.
type msgKind uint8

const (
	// kTuple marks a data envelope's header: its body holds routed data
	// tuples.
	kTuple msgKind = iota
	// kSignal is an epoch-change signal a reshuffler sends each joiner
	// when it adopts a new mapping; it separates old-epoch from
	// new-epoch tuples on that reshuffler's FIFO link.
	kSignal
	// kEOS marks the end of a reshuffler's stream.
	kEOS
	// kMigBegin is the first message a migration sender emits; it lets
	// a joiner learn of a migration from its partner before any
	// reshuffler signal has reached it.
	kMigBegin
	// The retired per-tuple migration kind; its slot stays reserved so
	// every other kind keeps its wire value.
	_
	// kMigDone marks the end of a sender's migration stream.
	kMigDone
	// kCkpt is a checkpoint barrier marker: each reshuffler emits one
	// to every joiner after flushing its pending envelopes, so a joiner that
	// has collected all numRe markers has seen exactly the pre-barrier
	// prefix of every link (Chandy-Lamport alignment on FIFO links).
	// The checkpoint id rides in tuple.Seq and the force-full flag in
	// epoch (nonzero = snapshot full, ignore delta watermarks) — the
	// marker carries no payload, and reusing the fields keeps the
	// message layout unchanged (message_test.go pins it).
	kCkpt
	// kMigBlocks carries a run of relocated old-epoch tuples as
	// columnar arena blocks (join.BlockEncoder): the only form migrated
	// state takes. A target joiner in this process gets the sealed
	// block set by pointer, as a zero-length tuple.Payload
	// (join.BlockSet.AsPayload); a target behind a link gets the blocks
	// serialized in tuple.Payload and decodes them into the same block
	// set; the receiver adopts them into µ whole. Either form rides
	// tuple.Payload; no new message fields (message_test.go pins the
	// layout).
	kMigBlocks
)

// message is the unit of the control and migration planes. On the data
// plane (reshuffler->joiner) a control message is the header of a
// header-only envelope and a data envelope's header uses the sender
// and epoch fields for its whole body (batch.go); data tuples
// never travel as messages. The migration plane (joiner->joiner) ships
// messages one at a time, its bulk riding inside kMigBlocks. The field
// order is descending by alignment to eliminate padding;
// message_test.go asserts the layout stays tight.
type message struct {
	tuple   join.Tuple
	mapping matrix.Mapping // kSignal, kMigBegin: the target mapping
	from    int            // sender task id (reshuffler or joiner)
	epoch   uint32
	kind    msgKind
	expand  bool // kSignal, kMigBegin: elastic expansion step
}

// ctrlKind discriminates controller->reshuffler commands.
type ctrlKind uint8

const (
	// ctrlEpoch instructs reshufflers to adopt a new mapping.
	ctrlEpoch ctrlKind = iota
	// ctrlFinish instructs reshufflers to emit EOS and exit; sent only
	// when the source is drained and no migration is in flight.
	ctrlFinish
	// ctrlCkpt instructs reshufflers to flush pending batches, emit a
	// kCkpt barrier marker to every joiner, and report their consumed
	// cut position to the control task. Issued only between
	// migrations (never while acks are pending), so every joiner is at
	// a stable epoch when its barrier completes.
	ctrlCkpt
)

// ctrlMsg is a controller command.
type ctrlMsg struct {
	kind    ctrlKind
	epoch   uint32
	mapping matrix.Mapping
	expand  bool
	// ckpt is the checkpoint id of a ctrlCkpt command. The control
	// links are low-volume, so the extra word is free here (unlike in
	// message, where the id rides in tuple.Seq).
	ckpt uint64
	// full forces a full (non-incremental) snapshot for a ctrlCkpt
	// command: joiners ignore their delta watermarks and serialize
	// whole stores. Set on the first checkpoint after start/restore and
	// on chain compaction (commitCkpt's dead-bytes rule).
	full bool
	// A ctrlEpoch's line writers (Operator.newLines); a ctrlCkpt's allCut.
	lines []line
	cut   <-chan struct{}
}
