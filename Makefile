# Targets mirror the CI jobs in .github/workflows/ci.yml so local and
# CI invocations are identical.

GO ?= go

.PHONY: all build build-examples test test-slow race race-shared recovery-oracles bench-ab profile lint fmt recover-smoke dist-smoke

all: build lint test

build:
	$(GO) build ./...

# The examples are the documented face of the pipeline API; building
# and running each one (mirrored by a dedicated CI step) guarantees the
# README/examples surface can never drift from the code — a
# constructor change that compiles but fails at run time fails here.
build-examples:
	$(GO) build ./examples/...
	@for ex in examples/*/; do \
		echo "run $$ex"; $(GO) run ./$$ex >/dev/null || exit 1; \
	done

test:
	$(GO) test ./...

# The 15 slowest tests (package, name, seconds): one verbose tier-1 run
# kept in $(SLOW_LOG), listed by scripts/slowtests.sh. The target fails
# when a test fails, after listing.
SLOW_LOG ?= test-v.log

test-slow:
	@$(GO) test -count=1 -v ./... >$(SLOW_LOG) 2>&1; status=$$?; \
	sh ./scripts/slowtests.sh $(SLOW_LOG); \
	if [ $$status -ne 0 ]; then grep -E -e '--- FAIL' -e '^FAIL' $(SLOW_LOG); echo "test-slow: tests failed; full output in $(SLOW_LOG)"; fi; \
	exit $$status

race:
	$(GO) test -race ./...

# The exactness oracles of the durability plane, the migration paths,
# the shared blocks, the slot indexes and the band line trees (CI's
# recovery-gomaxprocs job runs this at GOMAXPROCS 1, 2, 4 and 8; set
# GOMAXPROCS to match).
recovery-oracles:
	$(GO) test -count=3 ./internal/faultpoint/
	$(GO) test -count=3 -run 'Checkpoint|Restore|Recovery|Delta|Expansion|ReplayLog|Fluctuation|Straddles|ConcurrentFeeders|FinishRace|Migrat|Spill|EpochRuns|Batching|SHJ|Envelope|DataFrame|OneFramePerWorker|MixedPlacement|SharedBlocks|WorkerResidentGauge|SharedIndex|DropsStaleFrameSlots|BandLine' ./internal/core/
	$(GO) test -count=3 -run '^(TestSlotIndexAsOf|TestLineTreeAsOf)$$' ./internal/join/
	$(GO) test -count=3 -run 'Sharded|Pipeline|NonPowerOfTwoJoinersCompose' .

# Twenty race-detector runs of the tests whose goroutines share
# envelopes, blocks, slot indexes, line trees and recycled link buffers
# — in one process, then on loopback workers — then of those that hand
# work to the control task, each set in its own run to keep it well
# inside go test's default timeout (the same CI job, after the oracles).
# Each run's -v output is kept in $(RACE_LOGS)/<set>.log; a failing run
# prints its --- FAIL, DATA RACE and panic lines with the lines around
# them (a test's failure message comes just before its --- FAIL line)
# and the log's path.
RACE_LOGS ?= race-logs

race-shared:
	@mkdir -p $(RACE_LOGS)
	@$(call race_run,core-shared,-run '^(TestEnvelopeLifetime|TestMigrationBlocksByReference|TestReplayLogConcurrentTrim|TestReplayLogBlocksMatchFlatReference|TestReplayLogReleasesCutPayloads|TestSharedBlocksPerRow|TestSharedBlocksCaptureWhileAppending|TestCheckpointWritesEachBlockOnce|TestSharedBlocksAcrossMigrationExact|TestSharedIndexPerRow|TestSharedIndexAcrossCheckpoints|TestSharedBlocksPacked|TestJoinerEmitsBoundedSubRuns|TestBandLineTreePerRow|TestBandLineTreeAcrossCheckpoints|TestBandLineTreeAcrossMigrationExact)$$' ./internal/core/)
	@$(call race_run,core-workers,-run '^(TestRemoteEnvelopeOneFramePerWorker|TestWorkerSharedBlocksPerRow|TestWorkerSharedBlocksExact|TestWorkerSharedIndexPerRow|TestWorkerSharedIndexLongFrames|TestWorkerDropsStaleFrameSlots|TestWorkerRejectsMalformedFrames|TestLinkRecycledPayloadsDoNotAlias|TestWorkerEmptyPayloadStretches|TestDataFrameBytesPerRow|TestEnvelopeRoundTrip|TestEnvelopeRejectsCorruption)$$' ./internal/core/)
	@$(call race_run,core-control,-run '^(TestCheckpointConcurrentWithSends|TestAutoCheckpointEvery|TestCheckpointStraddlesMigrations|TestOperatorTaskGraph|TestExpansionPastAckBuffer|TestCheckpointFollowsDecisions)$$' ./internal/core/)
	@$(call race_run,join,-run '^(TestSlotIndexAsOf|TestLineTreeAsOf|TestCaptureWhileOwnerAddsPayloadColumn|TestCaptureWhileOwnerAddsUMetaColumn|TestBlockLayoutDifferential|TestEveryViewIsAWriterWindow)$$' ./internal/join/)

# race_run,<set>,<go test arguments>: one -race -count=20 -v run into
# $(RACE_LOGS)/<set>.log, reporting its wall time.
define race_run
	echo "race-shared $(1): go test -race -count=20 -v $(2)"; \
	start=$$(date +%s); \
	if $(GO) test -race -count=20 -v $(2) >$(RACE_LOGS)/$(1).log 2>&1; then \
		echo "race-shared $(1): ok in $$(($$(date +%s) - start)) s"; \
	else \
		grep -E -B4 -A4 -e '--- FAIL' -e 'DATA RACE' -e '^panic:' $(RACE_LOGS)/$(1).log | head -n 200; \
		echo "race-shared $(1): FAILED after $$(($$(date +%s) - start)) s; full output in $(RACE_LOGS)/$(1).log"; \
		exit 1; \
	fi
endef

# The crash-recovery drill (mirrored by CI's recovery-smoke job): kill
# the operator at every armed faultpoint under the race detector,
# restore from the latest checkpoint, replay, and verify exactness.
# The transport chaos case rides the same matrix: SQUALL_SMOKE_FLAKY
# doubles as the link fault rate for dropped/duplicated/torn frames.
recover-smoke:
	$(GO) test -race -count=1 ./internal/faultpoint/ ./internal/storage/ ./internal/transport/ -run 'Recovery|Corrupt|Leak|Faultpoint|Backend|Chaos'

# The distributed smoke drill (mirrored by CI's distributed-smoke
# job): two real joinworker processes, a ~120k-tuple skewed equi-join
# with forced migration over the TCP links, exact pair-count agreement
# with the single-process run, and clean process teardown.
dist-smoke:
	GO=$(GO) ./scripts/distsmoke.sh

# Interleaved A/B pairs of one bench/ workload against a git ref:
#   make bench-ab REF=HEAD~1 WORKLOAD=hot_band [PAIRS=10]
# prints both sides' medians, the parent IQR, the change's win count
# and the median's change against its bound per end-to-end metric of
# BENCHMARK.json.
bench-ab:
	sh ./scripts/abpairs.sh $(REF) $(WORKLOAD) $(PAIRS)

# Committed pprof recipe for the next hot-path hunt: run one evaluation
# query under the CPU profiler and print the top consumers. Tune -sf /
# -zipf for longer or more skewed runs.
profile:
	$(GO) run ./cmd/joinrun -query EQ5 -op dynamic -j 16 -sf 0.05 -zipf Z2 -cpuprofile cpu.pprof
	$(GO) tool pprof -top -nodecount=20 cpu.pprof

lint:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

fmt:
	gofmt -w .
