package squall

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/storage"
)

// Backend is a durable checkpoint store: Write commits one generation
// atomically (declaring the earlier generations a delta snapshot
// depends on), Generations lists the committed ones newest first, and
// Load returns a generation's whole blob chain base first. Attach one
// with WithBackend to enable checkpointing; hand it to Restore to
// rebuild an operator after a crash.
type Backend = storage.Backend

// Blob is one generation's payload within a loaded checkpoint chain.
type Blob = storage.Blob

// MemBackend is an in-process Backend for tests and single-process
// restarts.
type MemBackend = storage.MemBackend

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend { return storage.NewMemBackend() }

// FileBackend is a directory-backed Backend: each snapshot is a
// CRC-protected blob committed by atomic rename, with a per-generation
// manifest naming its whole chain; torn writes are detected, never
// replayed. The newest WithCheckpointKeep generations are retained for
// fallback restore.
type FileBackend = storage.FileBackend

// NewFileBackend opens (creating if needed) a checkpoint directory.
func NewFileBackend(dir string) (*FileBackend, error) { return storage.NewFileBackend(dir) }

// RetryBackend decorates a Backend with per-operation timeouts and
// capped exponential backoff (with jitter) on retryable errors.
// Corruption (ErrCorrupt) is never retried — rereading a torn file
// cannot fix it; fallback restore handles it instead.
type RetryBackend = storage.RetryBackend

// RetryOptions tunes a RetryBackend; the zero value gives sane
// defaults (3 retries, 10ms base delay doubling to 1s, 10s op
// timeout).
type RetryOptions = storage.RetryOptions

// NewRetryBackend wraps inner with retry behavior.
func NewRetryBackend(inner Backend, opts RetryOptions) *RetryBackend {
	return storage.NewRetryBackend(inner, opts)
}

// FlakyBackend injects failures into an inner Backend for recovery
// testing: a probabilistic error rate, fixed latency, and scripted
// per-write faults (errors, short writes).
type FlakyBackend = storage.FlakyBackend

// FlakyOp scripts one FlakyBackend write fault.
type FlakyOp = storage.FlakyOp

// NewFlakyBackend wraps inner with fault injection (errRate in [0,1],
// deterministic under seed).
func NewFlakyBackend(inner Backend, errRate float64, seed int64) *FlakyBackend {
	return storage.NewFlakyBackend(inner, errRate, seed)
}

// ErrInjected is the error FlakyBackend injects; it is retryable (not
// ErrCorrupt), so a RetryBackend wrapping a FlakyBackend rides out
// injected outages.
var ErrInjected = storage.ErrInjected

// ErrCorrupt wraps every checkpoint validation failure (truncated
// blob, CRC mismatch, malformed manifest, broken chain):
// errors.Is(err, ErrCorrupt) distinguishes unusable-checkpoint from
// I/O trouble.
var ErrCorrupt = storage.ErrCorrupt

// ErrNoBackend is returned by Operator.Checkpoint when the operator
// was built without WithBackend.
var ErrNoBackend = core.ErrNoBackend

// ErrNoCheckpoint is returned by Restore when the backend holds no
// committed checkpoint to restore from.
var ErrNoCheckpoint = errors.New("squall: backend holds no checkpoint")

// ReplayLog is the ingest-edge log of a checkpointing operator: every
// tuple accepted by Send/SendBatch stays in it until a checkpoint
// covering it commits. After a crash, feed the dead operator's log to
// the restored operator's ReplayFrom — replayed tuples already covered
// by the restored snapshot are filtered by sequence number, so replay
// never duplicates results. The log is trimmed only to the oldest
// *retained* generation's cut, so a fallback restore to any retained
// generation still finds its uncovered suffix in the log.
type ReplayLog = core.ReplayLog

// RestoreInfo describes the checkpoint an operator was restored from.
type RestoreInfo struct {
	// CheckpointID is the restored snapshot's id; the operator's next
	// checkpoint uses CheckpointID+1.
	CheckpointID uint64
	// SkippedGenerations lists newer generations Restore rejected as
	// corrupt before this one validated (newest first, empty on a
	// clean restore). Each skipped generation means a longer replay
	// suffix: the log still covers everything past the restored cut.
	SkippedGenerations []uint64
	// Epoch and Mapping are the controller state at the barrier.
	Epoch   uint32
	Mapping Mapping
	// Joiners is the joiner count at the barrier (elastic expansion may
	// have grown it past the configured J).
	Joiners int
	// Emitted[i] is joiner i's output-pair count at the barrier: the
	// exact prefix of shard i's output stream the snapshot covers. A
	// sink that logs per shard can truncate to it and let replay
	// regenerate the rest exactly once.
	Emitted []int64
}

// Restore rebuilds an operator from the backend's newest restorable
// checkpoint. Generations are tried newest first: one that fails to
// load or decode with a corruption error (torn blob, CRC mismatch,
// broken chain) is skipped and the next older generation is tried —
// the last-good fallback. Replay then covers the skipped span: the
// log is trimmed only to the oldest retained generation, so falling
// back simply replays a longer suffix. The predicate, sink, and
// options must be re-supplied (a snapshot carries state, not code);
// the joiner count, mapping, and reshuffler count are forced from the
// snapshot, overriding WithJoiners and friends. The returned operator
// is not yet started: call Start (or StartContext), then ReplayFrom
// with the crashed operator's log (or re-send the uncheckpointed
// input), then continue feeding as usual.
//
// Restore fails with ErrNoCheckpoint when the backend is empty, with
// an ErrCorrupt-wrapped error when every retained generation is
// corrupt (the newest generation's failure is the one reported), and
// with the backend's error verbatim on non-corruption I/O failures —
// those are retryable, so Restore does not silently fall past them to
// stale state. Options a checkpointing operator cannot honor
// (WithGrouped, WithWorkers) are an error too. It never panics on
// corrupt input or misconfiguration.
func Restore(backend Backend, pred Predicate, sink Sink, opts ...Option) (*Operator, *RestoreInfo, error) {
	gens, err := backend.Generations()
	if err != nil {
		return nil, nil, fmt.Errorf("squall: restore: %w", err)
	}
	if len(gens) == 0 {
		return nil, nil, ErrNoCheckpoint
	}
	sc := newStageConfig(nil, opts)
	if sc.grouped {
		return nil, nil, errors.New("squall: restore: the grouped operator does not support checkpointing")
	}
	cfg := sc.coreConfig(pred, sink)
	cfg.Backend = backend

	var skipped []uint64
	var firstErr error
	for _, gen := range gens {
		op, info, err := restoreGen(backend, cfg, gen)
		if err == nil {
			info.SkippedGenerations = skipped
			return op, info, nil
		}
		if !errors.Is(err, ErrCorrupt) {
			return nil, nil, fmt.Errorf("squall: restore generation %d: %w", gen, err)
		}
		if firstErr == nil {
			firstErr = err
		}
		skipped = append(skipped, gen)
	}
	return nil, nil, fmt.Errorf("squall: restore: all %d retained generations corrupt, newest: %w",
		len(gens), firstErr)
}

// restoreGen attempts a restore from one generation: load its blob
// chain, decode it into the head snapshot with per-joiner payload
// chains, and rebuild the operator.
func restoreGen(backend Backend, cfg core.Config, gen uint64) (*Operator, *RestoreInfo, error) {
	blobs, err := backend.Load(gen)
	if err != nil {
		return nil, nil, err
	}
	snap, err := storage.DecodeOperatorSnapshotChain(blobs)
	if err != nil {
		return nil, nil, err
	}
	op, err := core.RestoreOperator(cfg, snap)
	if err != nil {
		return nil, nil, err
	}
	info := &RestoreInfo{
		CheckpointID: snap.ID,
		Epoch:        snap.Epoch,
		Mapping:      snap.Mapping,
		Joiners:      len(snap.Table),
		Emitted:      make([]int64, len(snap.Table)),
	}
	for _, js := range snap.Joiners {
		info.Emitted[js.ID] = js.Emitted
	}
	return op, info, nil
}
