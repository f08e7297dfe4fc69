GO ?= go

.PHONY: ci build vet lint lint-ci soclint soclint-json contracts test race flake fuzz chaos short perf load-smoke cluster-smoke workflow-smoke trace-demo sim crash

## ci: the full gate — build, lint (vet + soclint in machine-readable
## mode), race-enabled tests, the flake gate (concurrent orchestration,
## the durable-machine hammer, call-plane deadlines and the registry's
## concurrent readers, 20 race-enabled repeats), the fuzz targets, the
## deterministic simulation corpus, the exhaustive WAL, workflow-journal
## and registry crash-point corpora, the end-to-end performance check,
## the open-loop load smoke, and the cluster + workflow orchestration
## smokes
ci: build lint-ci race flake fuzz sim crash perf load-smoke cluster-smoke workflow-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## lint: the static-analysis gate — go vet plus the repo's own soclint
## analyzers (context propagation, body closing, lock discipline and
## ordering, goroutine-leak and atomic-access discipline, client
## timeouts, the one exchange path, error discards, pool reset
## discipline). Test files are analyzed too; soclint prints its
## wall-clock cost on stderr.
lint: vet soclint

## lint-ci: the same gate with soclint emitting one JSON object per
## finding (suppressed findings included, carrying their ignore reason)
## for machine consumption
lint-ci: vet soclint-json

soclint:
	$(GO) run ./cmd/soclint ./...

soclint-json:
	$(GO) run ./cmd/soclint -json ./...

## contracts: regenerate the golden WSDL contracts; run after changing
## any service signature and commit the result.
## TestContractsMatchServices (cmd/contractgen, in `test`) fails while a
## published service and its committed file differ
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

## flake: repeat the concurrent-orchestration tests under the race
## detector — the interleavings they guard (a snapshot between a journal
## ack and its in-memory apply, a Resume against a finishing driver, two
## Starts of one id) show up in a minority of runs, so one pass proves
## little — the durable machine's hammer (appenders racing snapshots,
## then a power cut), and the call plane's deadline tests
## (TestDoDeadline…): the deadline context's clock races a blocked
## transport, a stalled body, the caller's cancel and Close, and waiters
## and child contexts arriving meanwhile (…Conformance,
## …CancelsChildrenWithoutWatchers, …Hammer), the registry's readers
## (Get, Search, SearchQoS, List) racing republish, unpublish, heartbeat
## and eviction under the directory's one lock, and the request path's
## other locked tables: the metrics set's records racing its report, a
## binding client's per-operation records filled concurrently, the front
## door's picks racing membership churn, and the host's dispatch racing
## Mount; and sampled traces whole or absent across a client, a door and
## three hosts whose tracers race to record them
flake:
	$(GO) test -race -count=20 -run 'TestConcurrentOrchestration|TestConcurrentStartSameID' ./internal/workflow
	$(GO) test -race -count=20 -run TestMachineHammer ./internal/wal
	$(GO) test -race -count=20 -run 'TestDoDeadline|TestRecordsResolveOncePerKeyAndStayBounded' ./internal/callplane
	$(GO) test -race -count=20 -run 'TestLookupDuringPublishConsistent|TestSearchDuringHeartbeatAndEvict|TestSearchDuringRepublishConsistent' ./internal/registry
	$(GO) test -race -count=20 -run TestReportAgreesWithRecords ./internal/telemetry
	$(GO) test -race -count=20 -run TestFrontDoorChurnParallel ./internal/cloud
	$(GO) test -race -count=20 -run 'TestMountDuringInvokeParallel|TestTracesWholeOrAbsent' ./internal/host

## fuzz: run each fuzz target for 20 s beyond its committed seeds
## (testdata/fuzz/, which plain `go test` already replays):
## ParseTraceParent against an encoding/hex reference and a format/parse
## round trip, and the REST binding's JSON object decoder against
## encoding/json. A crasher lands in testdata/fuzz/ and is committed with
## its fix
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseTraceParent$$' -fuzztime 20s ./internal/telemetry
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeJSONObject$$' -fuzztime 20s ./internal/host

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

# Crash corpus size: records the WAL's own corpus appends before the
# every-byte-offset truncation, bit-flip and power-cut sweeps. Raise
# (WAL_CRASH_RECORDS=64) for a deeper nightly sweep.
WAL_CRASH_RECORDS ?= 24

## crash: the crash-point corpora, all on one harness (internal/wal/waltest)
## that cuts every file a wal.Machine tenant wrote — segments and
## snapshots — at every byte offset, flips every byte, and cuts power
## after every filesystem operation, then proves each image recovers
## exactly its acked prefix or fails naming the gap; it runs over the
## WAL itself, the harness's own self-test, a workflow journal (which
## must also settle with no duplicated side effect) and a durable
## registry (which must recover exactly the acked prefix's directory)
crash:
	WAL_CRASH_RECORDS=$(WAL_CRASH_RECORDS) $(GO) test -count 1 -run 'TestCrash' ./internal/wal/...
	WORKFLOW_CRASH_STRIDE=1 $(GO) test -count 1 -run 'TestCrash' ./internal/workflow
	$(GO) test -count 1 -run 'TestCrash' ./internal/registry

## trace-demo: drive one resilient call through injected faults, retry,
## failover and the response cache, then print the reassembled trace
## trees (the same rendering GET /tracez?format=tree serves)
trace-demo:
	$(GO) run ./examples/tracedemo

## perf: both levels of the performance check. Per-function allocation
## budgets are the AllocsPerRun ceilings in each package's alloc_test.go
## (built without the race detector, so `race` skips them). End to end
## it is the repository's one benchmark (bench/, BENCHMARK.json) on its
## two gated workloads, in both modes, 5 s each: it fails on a wrong
## answer, a failed operation or a per-layer budget that does not
## reconcile with the end-to-end figure
perf:
	$(GO) test -count 1 -run AllocCeiling ./internal/...
	$(GO) run ./bench -workload dispatch-light -seconds 5
	$(GO) run ./bench -workload crypto-heavy -seconds 5

## load-smoke: deterministic open-loop load check — a virtual-clock
## socload run with an injected 100ms server stall must still offer the
## full arrival schedule (the stall lands in the latency tail, never in
## the request count: the coordinated-omission guarantee, gated in CI)
load-smoke:
	$(GO) run ./cmd/socload -virtual -rate 2000 -duration 2s -stall 100ms -assert-open-loop

## cluster-smoke: the deterministic elastic-cluster gate — the
## simulator's one World with a front door runs the canned cluster
## schedule: load ramps up and down through the door with replica kills
## mid-ramp, and every window must close the ledger (every admitted
## request completes or fails with an injected fault — scale-down never
## drops one), keep the pool inside policy bounds, stop only drained
## replicas, never pick an expired one, and the run must replay to the
## identical hash; each cluster mutation hook must trip its invariant
cluster-smoke:
	$(GO) test -count 1 -run 'TestCluster|TestCheckCluster' ./internal/simtest

## workflow-smoke: the deterministic durable-workflow gate — a
## workflow-heavy simtest schedule starts hundreds of instances with
## power cuts armed mid-Parallel and mid-ForEach, kills and resumes;
## every instance must settle exactly once (complete or compensate, per
## the journal audit), the run must replay to the identical hash, and
## each journal mutation hook must trip the invariant
workflow-smoke:
	$(GO) test -count 1 -run 'TestWorkflowSmoke|TestWorkflowMutationsTrip' ./internal/simtest
