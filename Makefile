GO ?= go

.PHONY: ci build vet lint lint-ci soclint soclint-json contracts test race flake chaos short bench bench-compare bench-wal bench-wal-compare bench-workflow bench-workflow-compare bench-contention bench-contention-record load-smoke cluster-smoke workflow-smoke trace-demo sim crash

## ci: the full gate — build, lint (vet + soclint in machine-readable
## mode), race-enabled tests, the concurrent-orchestration flake gate
## (20 race-enabled repeats), the deterministic simulation corpus, the
## exhaustive WAL + workflow-journal crash-point corpora, the benchmark
## regression gates (message plane + WAL + workflow + contention), the
## open-loop load smoke, and the cluster + workflow orchestration smokes
ci: build lint-ci race flake sim crash bench-compare bench-wal-compare bench-workflow-compare bench-contention load-smoke cluster-smoke workflow-smoke

# Raw benchmark output lands outside the tree: committed artifacts are
# the BENCH_*.json baselines, never the text dumps.
BENCH_OUT_DIR := $(if $(TMPDIR),$(TMPDIR),/tmp)/soc-bench

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## lint: the static-analysis gate — go vet plus the repo's own soclint
## analyzers (contract drift, context propagation, body closing, lock
## discipline and ordering, goroutine-leak and atomic-access discipline,
## client timeouts, error discards, pool reset discipline). Test files
## are analyzed too; soclint prints its wall-clock cost on stderr.
lint: vet soclint

## lint-ci: the same gate with soclint emitting one JSON object per
## finding (suppressed findings included, carrying their ignore reason)
## for machine consumption
lint-ci: vet soclint-json

soclint:
	$(GO) run ./cmd/soclint ./...

soclint-json:
	$(GO) run ./cmd/soclint -json ./...

## contracts: regenerate the golden WSDL contracts that contractcheck
## verifies registrations against; run after changing any service
## signature and commit the result
contracts:
	$(GO) run ./cmd/contractgen -out contracts

## test: tier-1 suite (fast; chaos suite included unless -short)
test:
	$(GO) test ./...

## short: tier-1 only — the chaos suite honors -short and skips itself
short:
	$(GO) test -short ./...

## race: everything under the race detector
race:
	$(GO) test -race ./...

## flake: repeat the concurrent-orchestration test under the race
## detector — the interleavings it guards (a snapshot between a journal
## ack and its in-memory apply, a Resume against a finishing driver)
## show up in a minority of runs, so one pass proves little
flake:
	$(GO) test -race -count=20 -run TestConcurrentOrchestration ./internal/workflow

## chaos: just the fault-injection chaos suite, verbosely
chaos:
	$(GO) test -race -v -run TestIntegrationChaos .

# Seed corpus for the simulation gate. Override to widen the sweep
# (SIM_SEEDS=500) or shift it (SIM_FIRST=1000) without editing this file.
SIM_SEEDS ?= 50
SIM_FIRST ?= 1
SIM_STEPS ?= 250

## sim: deterministic simulation corpus — every seed runs twice and the
## event-log hashes must match; invariants are checked after every step.
## A failing seed prints its shrunk schedule and the exact replay
## command (go run ./cmd/socsim -seed N ...) verbatim.
sim:
	$(GO) run ./cmd/socsim -seeds $(SIM_SEEDS) -first $(SIM_FIRST) -steps $(SIM_STEPS)

# Crash corpus size: records per corpus file in the every-byte-offset
# truncation and bit-flip sweeps. Raise (WAL_CRASH_RECORDS=64) for a
# deeper nightly sweep.
WAL_CRASH_RECORDS ?= 24

## crash: the crash-point corpora — cut the WAL at every byte offset and
## flip every byte, then prove recovery salvages exactly the acked
## prefix and stays deterministic; the same sweep runs over a workflow
## journal image, where each damaged prefix must recover to a replayable
## instance or a clean compensation with no duplicated side effect
crash:
	WAL_CRASH_RECORDS=$(WAL_CRASH_RECORDS) $(GO) test -count 1 -run 'TestCrash' ./internal/wal
	WORKFLOW_CRASH_STRIDE=1 $(GO) test -count 1 -run 'TestCrash' ./internal/workflow

## trace-demo: drive one resilient call through injected faults, retry,
## failover and the response cache, then print the reassembled trace
## trees (the same rendering GET /tracez?format=tree serves)
trace-demo:
	$(GO) run ./examples/tracedemo

# Stable settings for the gated message-plane benchmarks: fixed iteration
# count (comparable ns/op and deterministic allocs/op) and three runs so
# benchdiff can take medians.
BENCHFLAGS := -run '^$$' -bench BenchmarkMessagePlane -benchmem -benchtime 1000x -count 3

## bench: run the hot-path message-plane benchmarks and record them as
## the committed baseline artifact BENCH_messageplane.json
bench:
	@mkdir -p $(BENCH_OUT_DIR)
	$(GO) test $(BENCHFLAGS) . | tee $(BENCH_OUT_DIR)/bench.out
	$(GO) run ./cmd/benchdiff -new $(BENCH_OUT_DIR)/bench.out -gate none -json BENCH_messageplane.json

## bench-compare: rerun the message-plane benchmarks and fail if
## allocs/op regressed >10% against the recorded baseline (time is
## reported but not gated: CI machines are noisy, allocation counts
## are deterministic)
bench-compare:
	@mkdir -p $(BENCH_OUT_DIR)
	$(GO) test $(BENCHFLAGS) . | tee $(BENCH_OUT_DIR)/bench.out
	$(GO) run ./cmd/benchdiff -against BENCH_messageplane.json -new $(BENCH_OUT_DIR)/bench.out -gate allocs -threshold 10

WAL_BENCHFLAGS := -run '^$$' -bench BenchmarkWAL -benchmem -benchtime 1000x -count 3

## bench-wal: run the WAL append/recover benchmarks (over the
## deterministic in-memory disk, so allocation counts are exact) and
## record them as the committed baseline artifact BENCH_wal.json
bench-wal:
	@mkdir -p $(BENCH_OUT_DIR)
	$(GO) test $(WAL_BENCHFLAGS) ./internal/wal | tee $(BENCH_OUT_DIR)/bench-wal.out
	$(GO) run ./cmd/benchdiff -new $(BENCH_OUT_DIR)/bench-wal.out -gate none -json BENCH_wal.json

## bench-wal-compare: rerun the WAL benchmarks and fail if allocs/op
## regressed >10% against the recorded baseline — the append path is
## zero-allocation and must stay that way
bench-wal-compare:
	@mkdir -p $(BENCH_OUT_DIR)
	$(GO) test $(WAL_BENCHFLAGS) ./internal/wal | tee $(BENCH_OUT_DIR)/bench-wal.out
	$(GO) run ./cmd/benchdiff -against BENCH_wal.json -new $(BENCH_OUT_DIR)/bench-wal.out -gate allocs -threshold 10

WF_BENCHFLAGS := -run '^$$' -bench BenchmarkWorkflow -benchmem -benchtime 1000x -count 3

## bench-workflow: run the workflow journal-append and instance-complete
## benchmarks (over the deterministic in-memory disk, so allocation
## counts are exact) and record them as the committed baseline artifact
## BENCH_workflow.json
bench-workflow:
	@mkdir -p $(BENCH_OUT_DIR)
	$(GO) test $(WF_BENCHFLAGS) ./internal/workflow | tee $(BENCH_OUT_DIR)/bench-workflow.out
	$(GO) run ./cmd/benchdiff -new $(BENCH_OUT_DIR)/bench-workflow.out -gate none -json BENCH_workflow.json

## bench-workflow-compare: rerun the workflow benchmarks and fail if
## allocs/op regressed >10% against the recorded baseline — the journal
## append rides the orchestrator's hottest path
bench-workflow-compare:
	@mkdir -p $(BENCH_OUT_DIR)
	$(GO) test $(WF_BENCHFLAGS) ./internal/workflow | tee $(BENCH_OUT_DIR)/bench-workflow.out
	$(GO) run ./cmd/benchdiff -against BENCH_workflow.json -new $(BENCH_OUT_DIR)/bench-workflow.out -gate allocs -threshold 10

# Contention suite settings: fixed iteration count for deterministic
# allocs/op, three runs for medians. 50 iterations keeps the saturated
# variants (NumCPU x 128 goroutines, each running b.N times) inside a
# CI-friendly wall clock.
CONTENTION_BENCHFLAGS := -run '^$$' -bench BenchmarkContention -benchmem -benchtime 50x -count 3

## bench-contention: rerun the low/high-concurrency contention suite and
## gate against the committed BENCH_contention.json baseline — allocs/op
## per benchmark at 10%, plus each family's parallel-contention ratio
## (parallel ns / serial ns), the dimension that catches a reintroduced
## global lock without flaking on oversubscribed wall-time noise
bench-contention:
	@mkdir -p $(BENCH_OUT_DIR)
	$(GO) test $(CONTENTION_BENCHFLAGS) . | tee $(BENCH_OUT_DIR)/bench-contention.out
	$(GO) run ./cmd/benchdiff -against BENCH_contention.json -new $(BENCH_OUT_DIR)/bench-contention.out -gate contention -threshold 10

## bench-contention-record: re-record the contention baseline artifact
## (run on a quiet machine; commit the result)
bench-contention-record:
	@mkdir -p $(BENCH_OUT_DIR)
	$(GO) test $(CONTENTION_BENCHFLAGS) . | tee $(BENCH_OUT_DIR)/bench-contention.out
	$(GO) run ./cmd/benchdiff -new $(BENCH_OUT_DIR)/bench-contention.out -gate none -json BENCH_contention.json

## load-smoke: deterministic open-loop load check — a virtual-clock
## socload run with an injected 100ms server stall must still offer the
## full arrival schedule (the stall lands in the latency tail, never in
## the request count: the coordinated-omission guarantee, gated in CI)
load-smoke:
	$(GO) run ./cmd/socload -virtual -rate 2000 -duration 2s -stall 100ms -assert-open-loop

## cluster-smoke: the deterministic elastic-cluster gate — a
## virtual-clock schedule ramps load up and down through the front door
## with replica kills mid-ramp, and the run must close its ledger
## (every admitted request completes or fails with an injected fault —
## scale-down never drops one), keep the pool inside policy bounds,
## never pick an expired replica, and replay to the identical hash
cluster-smoke:
	$(GO) test -count 1 -run 'TestClusterSmoke' ./internal/simtest

## workflow-smoke: the deterministic durable-workflow gate — a
## workflow-heavy simtest schedule starts hundreds of instances with
## power cuts armed mid-Parallel and mid-ForEach, kills and resumes;
## every instance must settle exactly once (complete or compensate, per
## the journal audit), the run must replay to the identical hash, and
## each journal mutation hook must trip the invariant
workflow-smoke:
	$(GO) test -count 1 -run 'TestWorkflowSmoke|TestWorkflowMutationsTrip' ./internal/simtest
