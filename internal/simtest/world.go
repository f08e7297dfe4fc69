package simtest

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"soc/internal/cloud"
	"soc/internal/core"
	"soc/internal/faultinject"
	"soc/internal/host"
	"soc/internal/registry"
	"soc/internal/reliability"
	"soc/internal/services"
	"soc/internal/telemetry"
	"soc/internal/vtime"
	"soc/internal/wal"
	"soc/internal/workflow"
)

// simEpoch is the fixed instant every simulation starts at: virtual time
// is part of the reproducible state, so it cannot depend on when the run
// happens to execute.
var simEpoch = time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)

// Config sizes a simulated world. The zero value gets workable defaults;
// durations are virtual time.
type Config struct {
	// Replicas is the simulated replica count (default 3).
	Replicas int
	// Clients is the logical client count; each gets its own
	// ResilientClient with private breakers and failover stickiness
	// (default 3).
	Clients int
	// Faults is the per-link fault rule; nil uses DefaultFaults. Point at
	// a zero Rule for a fault-free world.
	Faults *faultinject.Rule
	// DiskFaults is the per-replica disk fault rule applied to the durable
	// directory's write-ahead log; nil uses DefaultDiskFaults. Point at a
	// zero DiskRule for perfect disks.
	DiskFaults *faultinject.DiskRule
	// Mutation enables one fault hook (tests only): a workflow.Mutation*
	// hook on every replica's orchestrator, or one of this package's
	// cluster or health Mutation* hooks. The invariant it targets must
	// trip.
	Mutation string
	// Door, when set, puts an elastic cluster in the world: a front door
	// whose rotation an autoscaler sizes with this policy, launching
	// ordinary simulated replicas with leases of doorLease. Window and
	// kill-replica steps drive it. Cooldown spaces the autoscaler's
	// actions (default 3 s).
	Door     cloud.Policy
	Cooldown time.Duration
}

// The world's fixed sizing; durations are virtual time.
const (
	// cacheCapacity and cacheTTL size each replica's idempotent-response
	// cache, deliberately large enough that neither LRU eviction nor TTL
	// expiry legally re-runs a handler mid-run, which is what makes the
	// cache-once invariant checkable.
	cacheCapacity = 4096
	cacheTTL      = 24 * time.Hour
	// attemptTimeout bounds each attempt; the breaker and retry
	// constants configure each client's reliability stack.
	attemptTimeout   = 2 * time.Second
	breakerThreshold = 3
	breakerCooldown  = time.Second
	retryAttempts    = 3
	retryBase        = 25 * time.Millisecond
	// baseRTT is the virtual wire latency charged per delivery attempt.
	baseRTT = time.Millisecond
	// snapshotEvery folds each replica's directory log into a snapshot
	// after this many records, small enough that generated schedules
	// exercise snapshot + compaction + recovery-from-snapshot.
	snapshotEvery = 6
	// segmentBytes is the replica WAL rotation threshold, small enough
	// that schedules span multiple segments.
	segmentBytes = 2048
	// workflowSnapshotEvery folds each replica's workflow journal into a
	// snapshot after this many appends: large enough that instances span
	// snapshots, small enough that compaction happens.
	workflowSnapshotEvery = 48
)

// doorLease is the autoscaled replicas' registry lease: a killed replica
// stops heartbeating and leaves the rotation once it lapses.
const doorLease = 5 * time.Second

// Cluster mutation hooks: each breaks one cluster invariant in a world
// with a front door, and that invariant must trip.
const (
	// MutationLostReply loses the last reply of every window between the
	// door and its client (trips cluster-accounting).
	MutationLostReply = "lost-reply"
	// MutationUnderscale runs the autoscaler one replica below the
	// declared minimum (trips cluster-bounds).
	MutationUnderscale = "underscale"
	// MutationStopUndrained stops a scale-down victim at once instead of
	// waiting for it to drain (trips cluster-drain).
	MutationStopUndrained = "stop-undrained"
	// MutationZombieHeartbeat keeps renewing a killed replica's lease
	// (trips cluster-expiry).
	MutationZombieHeartbeat = "zombie-heartbeat"
)

// The world's health checker: probe steps drive it one replica at a
// time (Check), so the interval only sets each probe's timeout.
const (
	healthInterval = time.Second
	healthFall     = 2
	healthRise     = 2
)

// Health mutation hooks: each breaks the world's side of the probe feed,
// and the invariant it targets must trip.
const (
	// MutationEarlyDemote builds the checker with FallThreshold-1 while
	// the checker audit expects the real threshold (trips health-edges).
	MutationEarlyDemote = "early-demote"
	// MutationDoubleFeed folds every probe into the QoS registry twice
	// (trips qos-bounds).
	MutationDoubleFeed = "double-feed"
)

// DefaultFaults is the standard chaos mix: errors, drops, the occasional
// hang, and latency spikes. Hangs are safe under virtual time — they
// advance the clock to the attempt deadline instead of stalling a
// goroutine.
var DefaultFaults = faultinject.Rule{
	ErrorRate:     0.10,
	DropRate:      0.07,
	HangRate:      0.02,
	MaxHang:       10 * time.Second,
	LatencyRate:   0.25,
	Latency:       40 * time.Millisecond,
	LatencyJitter: 20 * time.Millisecond,
}

// DefaultDiskFaults is the standard hostile-disk mix for the durable
// directory: failed writes, torn (short) writes, failed fsyncs. Crashes
// additionally tear whatever was written but not synced.
var DefaultDiskFaults = faultinject.DiskRule{
	WriteErrorRate: 0.02,
	ShortWriteRate: 0.05,
	SyncErrorRate:  0.04,
}

func (c Config) withDefaults() Config {
	if c.Replicas < 1 {
		c.Replicas = 3
	}
	if c.Clients < 1 {
		c.Clients = 3
	}
	if c.Faults == nil {
		f := DefaultFaults
		c.Faults = &f
	}
	if c.DiskFaults == nil {
		d := DefaultDiskFaults
		c.DiskFaults = &d
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 3 * time.Second
	}
	return c
}

// Transition is one observed breaker state change, tagged with the step
// it happened in and the (client, replica) breaker it belongs to.
type Transition struct {
	Step    int    `json:"step"`
	Client  int    `json:"client"`
	Replica string `json:"replica"`
	From    string `json:"from"`
	To      string `json:"to"`
}

// StepRecord is everything one step produced: the outcome, the spans
// drained from every tracer, delivery and cache counters, and breaker
// transitions. Invariant checkers consume these.
type StepRecord struct {
	Index       int
	Step        Step
	Err         string
	Out         string
	ElapsedMs   int64
	Delivered   int
	ServerSpans int
	CacheSpans  int
	Spans       []telemetry.Span
	Transitions []Transition
}

// RunRecord is a completed simulation: the schedule, per-step records,
// the violations found by the invariant checkers, and the canonical
// event log with its hash (two runs of the same schedule must produce
// the same hash — that IS the determinism contract).
type RunRecord struct {
	Schedule    Schedule
	Steps       []StepRecord
	Violations  []Violation
	HandlerRuns map[string]int
	Log         []string
	Hash        string
	// Pool[i] is the autoscaler's books as the i-th window began: the pool
	// its requests were served with (Running) and billed for (Running
	// plus Draining, until a drained replica stops). Door totals what the
	// front door's clients saw over the run.
	Pool []cloud.AutoscalerStats
	Door DoorOutcomes
}

// simReplica is one simulated backend: a network identity that survives
// restarts, and a process incarnation (host, services, response cache)
// that does not.
type simReplica struct {
	w           *World
	idx         int
	name        string
	baseURL     string
	alive       bool
	incarnation int
	h           *host.Host
	rt          http.RoundTripper // fault injector wrapped around delivery

	// disk is the replica's simulated disk: it survives restarts (it is
	// the durable medium) and tears its unsynced tails on kill. faultFS
	// is the same disk behind the write-fault injector (reads pass
	// through unfaulted, so recovery always sees the disk as it is).
	disk    *wal.MemFS
	faultFS wal.FS
	dreg    *registry.DurableRegistry

	// wfdisk is the second durable medium: the workflow journal's disk,
	// torn on the same power cuts, behind its own seeded fault injector.
	wfdisk    *wal.MemFS
	wfFaultFS wal.FS
	orch      *workflow.Orchestrator

	// An autoscaled replica is also rep, a member of the front door's
	// rotation exchanging over rt; life is its record for the drain and
	// expiry checkers.
	rep  *cloud.Replica
	life ReplicaLife
}

// World is one simulated universe: virtual clock, replicas, clients,
// the health checker over the static replicas, the QoS registry its
// probes feed, and the per-step counters the invariants read. A World
// runs single-threaded; determinism relies on sequential stepping.
type World struct {
	cfg          Config
	clock        *vtime.Virtual
	ctx          context.Context
	clientTracer *telemetry.Tracer
	replicas     []*simReplica
	clients      []*host.ResilientClient
	health       *reliability.HealthChecker
	qosReg       *registry.QoSRegistry

	stepIdx         int
	stepDelivered   int
	stepTransitions []Transition
	pendingSpans    []telemetry.Span
	handlerRuns     map[string]int
	// qosAgg is the world's own count of the probe outcomes it fed the
	// QoS registry, per replica entry; probes is every probe in order,
	// with the classification it left behind.
	qosAgg map[string]*QoSAgg
	probes []HealthProbe
	// acked is the per-replica ledger of durably acknowledged directory
	// state: exactly the entries whose publish/renew/unpublish acks the
	// world has seen. The acked ⇒ durable invariant holds each replica's
	// directory to it after every step, crashes included.
	acked []map[string]registry.Entry
	// wfAcked is the per-replica ledger of acked workflow-journal state:
	// a snapshot of every instance's audit taken after each workflow
	// step. Recovery may never lose or contradict it — the workflow
	// twin of acked ⇒ durable.
	wfAcked []map[string]workflow.InstanceAudit

	// seed derives every replica's fault plans and disks, including the
	// replicas the autoscaler launches mid-run.
	seed int64

	// The elastic cluster, when Config.Door is set: the front door, the
	// autoscaler sizing it, the registry whose leases reap killed
	// replicas, what the door's clients saw, and each window's pool.
	fd     *cloud.FrontDoor
	scaler *cloud.Autoscaler
	leases *registry.Registry
	seen   DoorOutcomes
	pool   []cloud.AutoscalerStats
}

// NewWorld builds a world for the schedule's seed. Fault plans for each
// replica link are derived from the seed, so the whole universe is a
// pure function of (Config, Schedule).
func NewWorld(cfg Config, seed int64) (*World, error) {
	cfg = cfg.withDefaults()
	w := &World{
		cfg:          cfg,
		clock:        vtime.NewVirtual(simEpoch),
		clientTracer: telemetry.NewTracer(4096),
		handlerRuns:  map[string]int{},
		qosAgg:       map[string]*QoSAgg{},
		seed:         seed,
	}
	// Every step runs under w.ctx, so its clock is the one the clients'
	// retries and breakers, the replicas' response caches, the door and
	// the autoscaler read: none of them is handed a clock of its own.
	w.ctx = vtime.WithClock(context.Background(), w.clock)

	// The QoS registry holds one entry per static replica: the health
	// checker probes replicas, so that is what its records measure.
	w.qosReg = registry.NewQoS(registry.New(registry.WithClock(w.clock.Now), registry.WithLease(100000*time.Hour)))
	for i := 0; i < cfg.Replicas; i++ {
		r, err := w.addReplica(fmt.Sprintf("replica-%d", i))
		if err != nil {
			return nil, err
		}
		if err := w.qosReg.Publish(registry.Entry{Name: r.name, Endpoint: r.baseURL}); err != nil {
			return nil, fmt.Errorf("simtest: publishing %s: %w", r.name, err)
		}
	}

	urls := make([]string, len(w.replicas))
	for i, r := range w.replicas {
		urls[i] = r.baseURL
	}
	//soclint:ignore noclientliteral the simulated network cannot hang in wall time — hangs advance the virtual clock to the attempt deadline, and a wall-clock Timeout here would leak real time into a deterministic run
	httpClient := &http.Client{Transport: linkNet{w}}
	// The production prober over the same fault-injected links the
	// clients call through; every client's failover reads its view.
	fall := healthFall
	if cfg.Mutation == MutationEarlyDemote {
		fall--
	}
	hc, err := reliability.NewHealthChecker(reliability.HealthCheckerConfig{
		Interval:      healthInterval,
		FallThreshold: fall,
		RiseThreshold: healthRise,
		Probe:         reliability.HTTPProbe(httpClient, "/healthz"),
		OnProbe:       w.observeProbe,
	}, urls...)
	if err != nil {
		return nil, err
	}
	w.health = hc
	for ci := 0; ci < cfg.Clients; ci++ {
		rc, err := host.NewResilientClient(host.Policy{
			Timeout: attemptTimeout,
			Retry: reliability.RetryPolicy{
				MaxAttempts: retryAttempts,
				BaseDelay:   retryBase,
				MaxDelay:    time.Second,
			},
			BreakerThreshold: breakerThreshold,
			BreakerCooldown:  breakerCooldown,
			MaxConcurrent:    16,
			HTTPClient:       httpClient,
			Tracer:           w.clientTracer,
			Health:           hc,
		}, urls...)
		if err != nil {
			return nil, err
		}
		for _, u := range urls {
			u, ci := u, ci
			rc.Breaker(u).OnTransition = func(from, to reliability.BreakerState) {
				w.stepTransitions = append(w.stepTransitions, Transition{
					Step: w.stepIdx, Client: ci, Replica: u,
					From: from.String(), To: to.String(),
				})
			}
		}
		w.clients = append(w.clients, rc)
	}

	// The door comes last: the clients above call the static replicas
	// directly, and autoscaled replicas only ever serve door traffic.
	if cfg.Door != (cloud.Policy{}) {
		policy := cfg.Door
		if cfg.Mutation == MutationUnderscale {
			policy.MinReplicas--
		}
		w.leases = registry.New(registry.WithClock(w.clock.Now), registry.WithLease(doorLease))
		w.fd = cloud.NewFrontDoor(cloud.FrontDoorConfig{Seed: seed})
		scaler, err := cloud.NewAutoscaler(w.fd, doorLauncher{w}, cloud.AutoscalerOptions{
			Policy:    policy,
			Cooldown:  cfg.Cooldown,
			Interval:  time.Second,
			Directory: w.leases,
		})
		if err != nil {
			return nil, err
		}
		w.scaler = scaler
		if err := scaler.Prime(w.ctx); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// addReplica builds a simulated replica — disks, fault injectors, first
// incarnation, fault-injected link — and adds it to the world. Every
// seed derives from the world's seed and the replica's name.
func (w *World) addReplica(name string) (*simReplica, error) {
	seed := w.seed
	r := &simReplica{w: w, idx: len(w.replicas), name: name, baseURL: "http://" + name}
	r.life.Name = name
	r.disk = wal.NewMemFS(seed ^ fnv64(r.name+"/disk"))
	di, err := faultinject.NewDisk(faultinject.DiskPlan{
		Seed: seed ^ fnv64(r.name+"/disk-faults"),
		Rule: *w.cfg.DiskFaults,
	})
	if err != nil {
		return nil, err
	}
	r.faultFS = di.FS(r.disk)
	r.wfdisk = wal.NewMemFS(seed ^ fnv64(r.name+"/wfdisk"))
	wdi, err := faultinject.NewDisk(faultinject.DiskPlan{
		Seed: seed ^ fnv64(r.name+"/wfdisk-faults"),
		Rule: *w.cfg.DiskFaults,
	})
	if err != nil {
		return nil, err
	}
	r.wfFaultFS = wdi.FS(r.wfdisk)
	w.acked = append(w.acked, map[string]registry.Entry{})
	w.wfAcked = append(w.wfAcked, map[string]workflow.InstanceAudit{})
	if err := r.boot(); err != nil {
		return nil, err
	}
	inj, err := faultinject.New(faultinject.Plan{
		Seed:    seed ^ fnv64(r.name),
		Default: *w.cfg.Faults,
	})
	if err != nil {
		return nil, err
	}
	inj.Tracer = w.clientTracer
	r.rt = inj.Transport(deliverer{r})
	w.replicas = append(w.replicas, r)
	return r, nil
}

// doorLauncher is the autoscaler's cloud.Launcher: a launch boots an
// ordinary simulated replica and publishes its lease; a stop retires it.
type doorLauncher struct{ w *World }

func (l doorLauncher) Launch(_ context.Context, id int) (*cloud.Replica, error) {
	r, err := l.w.addReplica(fmt.Sprintf("door-%d", id))
	if err != nil {
		return nil, err
	}
	r.rep = cloud.NewReplica(r.name, r.rt, 0)
	if err := l.w.leases.Publish(registry.Entry{Name: r.name, Category: cloud.ReplicaCategory, Endpoint: r.baseURL, Provider: "simtest"}); err != nil {
		return nil, err
	}
	return r.rep, nil
}

func (l doorLauncher) Stop(_ context.Context, rep *cloud.Replica) error {
	for _, r := range l.w.replicas {
		if r.rep == rep {
			l.w.retire(r)
		}
	}
	return nil
}

// retire stops an autoscaled replica for good: its lease is withdrawn, it
// refuses every later delivery, and the settle phase never restarts it.
// Whether its lease had already lapsed (a lost replica, not a drained
// one) is recorded before the withdrawal.
func (w *World) retire(r *simReplica) {
	if !r.life.Stopped.IsZero() {
		return
	}
	now := w.clock.Now()
	e, err := w.leases.Get(r.name)
	r.life.Lost = err != nil || !e.Available(now)
	r.life.Stopped = now
	//soclint:ignore errdiscard a lapsed lease may already be gone from the registry
	_ = w.leases.Unpublish(r.name)
}

// boot starts a fresh incarnation of the replica: new host, new service
// state, empty response cache (aging on the requests' virtual clock).
// Idempotent-operation handlers are wrapped to count successful
// executions per distinct input — the raw data of the cache-once
// invariant.
func (r *simReplica) boot() error {
	r.incarnation++
	r.alive = true
	r.life.Killed = time.Time{}
	h := host.New()
	cs, err := services.NewCreditScore()
	if err != nil {
		return err
	}
	rs, err := services.NewRandomString()
	if err != nil {
		return err
	}
	sc, err := services.NewShoppingCart(services.NewCarts())
	if err != nil {
		return err
	}
	for _, svc := range []*core.Service{cs, rs, sc} {
		svcName, inc, idx, w := svc.Name, r.incarnation, r.idx, r.w
		for _, op := range svc.Operations() {
			if !op.Idempotent {
				continue
			}
			opName, orig := op.Name, op.Handler
			op.Handler = func(ctx context.Context, in core.Values) (core.Values, error) {
				out, err := orig(ctx, in)
				if err == nil {
					key := fmt.Sprintf("replica-%d|inc-%d|%s.%s|%s", idx, inc, svcName, opName, canonValues(in))
					w.handlerRuns[key]++
				}
				return out, err
			}
		}
		if err := h.Mount(svc); err != nil {
			return err
		}
	}
	h.UseResponseCache(cacheCapacity, cacheTTL)
	r.h = h
	// Recover the durable directory from the replica's disk: the write-
	// ahead log (as salvaged after any crash) rebuilds exactly the acked
	// directory state of the previous incarnations.
	dreg, err := registry.OpenDurable(r.faultFS, registry.DurableOptions{
		WAL:           wal.Options{SegmentBytes: segmentBytes},
		SnapshotEvery: snapshotEvery,
	}, registry.WithClock(r.w.clock.Now), registry.WithLease(time.Hour))
	if err != nil {
		return err
	}
	r.dreg = dreg
	// Recover the durable workflow orchestrator from its own disk and
	// re-register the canned definitions and compensators (code is
	// per-incarnation; journals are the only durable truth). Its invoker
	// is the replica's own service plane over the simulated wire, so
	// workflow invocations produce the same spans, delivery counts and
	// cache hits the invariants audit.
	wfClient := &host.Client{
		BaseURL: r.baseURL,
		//soclint:ignore noclientliteral workflow invocations ride the deterministic in-memory wire; a wall-clock timeout would leak real time into the run
		HTTPClient: &http.Client{Transport: deliverer{r}},
		Tracer:     r.w.clientTracer,
	}
	inv := workflow.InvokerFunc(func(ctx context.Context, service, operation string, args map[string]any) (map[string]any, error) {
		out, err := wfClient.Call(ctx, service, operation, core.Values(args))
		return map[string]any(out), err
	})
	orch, err := workflow.OpenOrchestrator(r.wfFaultFS, workflow.Options{
		WAL:           wal.Options{SegmentBytes: segmentBytes},
		SnapshotEvery: workflowSnapshotEvery,
		Mutation:      r.w.cfg.Mutation,
	})
	if err != nil {
		return err
	}
	defs, err := buildWorkflowDefs(inv)
	if err != nil {
		return err
	}
	for _, wf := range defs {
		orch.Define(wf)
	}
	for _, name := range wfCompensators {
		orch.DefineCompensator(name, func(context.Context, map[string]any) error { return nil })
	}
	r.orch = orch
	return nil
}

// kill power-cuts the replica: deliveries start failing and both durable
// media keep only their fsynced prefixes plus seeded-random torn tails.
// An autoscaled replica's kill instant starts the expiry checker's clock.
func (r *simReplica) kill() {
	r.alive = false
	r.disk.Crash()
	r.wfdisk.Crash()
	if r.rep != nil {
		r.life.Killed = r.w.clock.Now()
	}
}

// deliverer delivers a request to one replica's current incarnation —
// the in-memory wire. A delivery attempt costs BaseRTT of virtual time
// whether or not the replica is up.
type deliverer struct{ r *simReplica }

func (d deliverer) RoundTrip(req *http.Request) (*http.Response, error) {
	w := d.r.w
	//soclint:ignore errdiscard crossing a virtual deadline mid-wire still delivers; the timeout layer converts it after the fact
	_ = vtime.Sleep(req.Context(), baseRTT)
	stopped := !d.r.life.Stopped.IsZero()
	if stopped {
		d.r.life.Late++
	}
	if !d.r.alive || stopped {
		return nil, fmt.Errorf("simnet: %s: connection refused", d.r.name)
	}
	w.stepDelivered++
	rec := httptest.NewRecorder()
	d.r.h.ServeHTTP(rec, req)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

// linkNet routes by URL host to the per-replica fault-injected link.
type linkNet struct{ w *World }

func (ln linkNet) RoundTrip(req *http.Request) (*http.Response, error) {
	for _, r := range ln.w.replicas {
		if r.name == req.URL.Host {
			return r.rt.RoundTrip(req)
		}
	}
	return nil, fmt.Errorf("simnet: unknown host %q", req.URL.Host)
}

// Run executes the schedule in a fresh world and returns the full
// record, invariants checked after every step. The returned error
// reports harness malfunction only; invariant violations are data.
func Run(cfg Config, sched Schedule) (*RunRecord, error) {
	w, err := NewWorld(cfg, sched.Seed)
	if err != nil {
		return nil, err
	}
	rec := &RunRecord{Schedule: sched}
	runOne := func(st Step) {
		i := len(rec.Steps)
		sr := w.runStep(i, st)
		rec.Steps = append(rec.Steps, sr)
		rec.Log = append(rec.Log, w.logLine(sr))
		rec.Violations = append(rec.Violations, w.checkStep(sr)...)
	}
	for _, st := range sched.Steps {
		runOne(st)
	}
	// Settle phase: every started workflow instance must eventually
	// complete or compensate, so the world keeps restarting dead
	// replicas and resuming pending instances with synthesized steps
	// (which flow through the same runStep/logLine/checkStep pipeline —
	// settling is part of the hashed, invariant-checked run). The round
	// bound only guards against a livelocked harness; a run that
	// exhausts it fails the settle invariant below.
	for round := 0; round < 64; round++ {
		synth := w.settleSteps()
		if len(synth) == 0 {
			break
		}
		for _, st := range synth {
			runOne(st)
		}
	}
	rec.Violations = append(rec.Violations, w.checkSettled(len(rec.Steps))...)
	rec.Violations = append(rec.Violations, CheckHealthEdges(w.probes, healthFall, healthRise)...)
	rec.HandlerRuns = w.handlerRuns
	rec.Pool, rec.Door = w.pool, w.seen
	sum := sha256.Sum256([]byte(strings.Join(rec.Log, "\n")))
	rec.Hash = hex.EncodeToString(sum[:])
	return rec, nil
}

func (w *World) runStep(i int, st Step) StepRecord {
	w.stepIdx = i
	w.stepDelivered = 0
	w.stepTransitions = w.stepTransitions[:0]
	w.pendingSpans = w.pendingSpans[:0]
	sr := StepRecord{Index: i, Step: st}
	start := w.clock.Now()

	switch st.Kind {
	case StepCall:
		client := w.clients[mod(st.Client, len(w.clients))]
		args := make(core.Values, len(st.Args))
		for k, v := range st.Args {
			args[k] = v
		}
		out, err := client.Call(w.ctx, st.Service, st.Op, args)
		sr.Err = errString(err)
		sr.Out = canonValues(out)
	case StepWorkflow:
		client := w.clients[mod(st.Client, len(w.clients))]
		out, names, err := w.runWorkflow(client, st.Args)
		sr.Err = errString(err)
		sr.Out = canonValues(out) + "|activities=" + strings.Join(names, ",")
	case StepKill:
		r := w.replicas[mod(st.Replica, len(w.replicas))]
		// A kill is a power cut, not a clean exit: each disk keeps only
		// what was fsynced plus a seeded-random torn tail of the rest.
		r.kill()
	case StepRestart:
		r := w.replicas[mod(st.Replica, len(w.replicas))]
		// Archive anything still in the dying incarnation's ring before
		// the host is replaced (normally empty: every step drains).
		w.pendingSpans = append(w.pendingSpans, drain(r.h.Tracer())...)
		if err := r.boot(); err != nil {
			// A failed boot (recovery tripped over an injected disk fault)
			// leaves the replica down; a later restart retries.
			r.alive = false
			sr.Err = errString(err)
		} else {
			// The recovery reports (snapshot index, replayed records,
			// salvage decisions) of both durable media feed the canonical
			// log, so recovery itself is held to the determinism hash.
			sr.Out = strings.ReplaceAll(r.dreg.Recovery().String(), " ", ",") +
				"|wf=" + strings.ReplaceAll(r.orch.Recovery().String(), " ", ",")
		}
	case StepWorkflowStart:
		r := w.replicas[mod(st.Replica, len(w.replicas))]
		if !r.alive {
			sr.Err = fmt.Sprintf("simtest: %s is down", r.name)
			sr.Out = "-"
			break
		}
		if st.AfterAppends > 0 {
			// The armed power cut fires INSTEAD of the journal write at
			// that ordinal — mid-instance, possibly mid-Parallel or
			// mid-ForEach, possibly during a later step on this replica.
			r.orch.ArmCrash(st.AfterAppends, r.kill)
		}
		id := fmt.Sprintf("wf-%03d", i)
		res, err := r.orch.Start(w.ctx, id, st.Def, workflowInit(st.Def, st.Args))
		sr.Err = errString(err)
		sr.Out = wfResultOut(res)
		w.wfAcked[r.idx] = r.orch.Audits()
	case StepWorkflowResume:
		r := w.replicas[mod(st.Replica, len(w.replicas))]
		if !r.alive {
			sr.Err = fmt.Sprintf("simtest: %s is down", r.name)
			sr.Out = "-"
			break
		}
		sr.Out = wfResultsOut(r.orch.ResumeAll(w.ctx))
		w.wfAcked[r.idx] = r.orch.Audits()
	case StepPublish, StepUnpublish, StepRenew:
		sr.Err, sr.Out = w.runDirectoryStep(st)
	case StepAdvance:
		w.clock.Advance(time.Duration(st.AdvanceMs) * time.Millisecond)
	case StepProbe:
		r := w.replicas[mod(st.Replica, w.cfg.Replicas)]
		err := w.health.Check(w.ctx, r.baseURL)
		p := HealthProbe{Step: i, Replica: r.name, Up: err == nil, Healthy: w.health.IsHealthy(r.baseURL)}
		w.probes = append(w.probes, p)
		sr.Err = errString(err)
		sr.Out = fmt.Sprintf("healthy=%t", p.Healthy)
	case StepWindow:
		sr.Err, sr.Out = w.runWindow(st.Rate)
	case StepKillReplica:
		// Replicas join the world in launch order, so the newest healthy
		// one in rotation is the last such (door-10 is newer than door-9).
		sr.Out = "-"
		for i := len(w.replicas) - 1; i >= 0; i-- {
			if r := w.replicas[i]; r.rep != nil && r.alive && w.fd.Replica(r.name) != nil && !r.rep.Draining() {
				r.kill()
				sr.Out = r.name
				break
			}
		}
	default:
		sr.Err = fmt.Sprintf("simtest: unknown step kind %q", st.Kind)
	}

	sr.ElapsedMs = int64(w.clock.Now().Sub(start) / time.Millisecond)
	spans := append([]telemetry.Span(nil), w.pendingSpans...)
	spans = append(spans, drain(w.clientTracer)...)
	for _, r := range w.replicas {
		spans = append(spans, drain(r.h.Tracer())...)
	}
	sr.Spans = spans
	sr.Delivered = w.stepDelivered
	sr.Transitions = append([]Transition(nil), w.stepTransitions...)
	for _, sp := range spans {
		switch sp.Kind {
		case telemetry.KindServer:
			sr.ServerSpans++
		case telemetry.KindCache:
			sr.CacheSpans++
		}
	}
	return sr
}

// observeProbe is the checker's OnProbe hook: the production feed into
// the QoS registry and, independently, the world's own aggregate that
// qos-bounds holds the registry to. Both are keyed by replica entry.
func (w *World) observeProbe(url string, up bool, rtt time.Duration) {
	name := strings.TrimPrefix(url, "http://") // a replica's baseURL is "http://" + its name
	feeds := 1
	if w.cfg.Mutation == MutationDoubleFeed {
		feeds = 2
	}
	for i := 0; i < feeds; i++ {
		//soclint:ignore errdiscard every static replica is published at NewWorld; a lookup failure would surface in qos-bounds
		_ = w.qosReg.ObserveProbe(name, up, rtt)
	}
	agg := w.qosAgg[name]
	if agg == nil {
		agg = &QoSAgg{}
		w.qosAgg[name] = agg
	}
	agg.Add(up, rtt)
}

// runDirectoryStep executes one durable-directory mutation against the
// target replica and settles the acked ledger: only a nil error is an
// ack, and only acks move the ledger. The outcome string renders the
// resulting lease deterministically (virtual milliseconds since epoch).
func (w *World) runDirectoryStep(st Step) (errStr, out string) {
	r := w.replicas[mod(st.Replica, len(w.replicas))]
	if !r.alive {
		return fmt.Sprintf("simtest: %s is down", r.name), "-"
	}
	ledger := w.acked[r.idx]
	switch st.Kind {
	case StepPublish:
		err := r.dreg.Publish(registry.Entry{
			Name:     st.Service,
			Endpoint: st.Args["endpoint"],
			Category: st.Args["category"],
			Doc:      "simulated directory entry " + st.Service,
			Provider: r.name,
		})
		if err != nil {
			return errString(err), "-"
		}
		stored, err := r.dreg.Get(st.Service)
		if err != nil {
			return "simtest: acked publish not readable: " + err.Error(), "-"
		}
		ledger[st.Service] = stored
		return "", fmt.Sprintf("lease=%dms", stored.LeaseExpires.Sub(simEpoch)/time.Millisecond)
	case StepUnpublish:
		if err := r.dreg.Unpublish(st.Service); err != nil {
			return errString(err), "-"
		}
		delete(ledger, st.Service)
		return "", "removed"
	case StepRenew:
		if err := r.dreg.Heartbeat(st.Service); err != nil {
			return errString(err), "-"
		}
		stored, err := r.dreg.Get(st.Service)
		if err != nil {
			return "simtest: acked renew not readable: " + err.Error(), "-"
		}
		ledger[st.Service] = stored
		return "", fmt.Sprintf("lease=%dms", stored.LeaseExpires.Sub(simEpoch)/time.Millisecond)
	}
	return "simtest: unknown directory step " + st.Kind, "-"
}

// runWindow is one virtual second of door traffic: rate requests through
// the front door at the fixed instants start + i·(1s/rate), then the
// clock moves to start + 1s, every live replica the autoscaler has not
// stopped heartbeats its lease, and the autoscaler ticks. Rate 0 is a
// quiesce window. The outcome renders the door's, the scaler's and the
// clients' running totals.
func (w *World) runWindow(rate int) (errStr, out string) {
	if w.fd == nil {
		return "simtest: this world has no front door", "-"
	}
	start := w.clock.Now()
	w.pool = append(w.pool, w.scaler.Stats())
	for i := 0; i < rate; i++ {
		w.clock.Advance(start.Add(time.Duration(i) * time.Second / time.Duration(rate)).Sub(w.clock.Now()))
		// ssnPool's first five entries are well-formed, so a replica
		// answers every door request 200.
		req := httptest.NewRequest(http.MethodGet, "http://door/services/CreditScore/invoke/Score?ssn="+ssnPool[i%5], nil)
		rec := httptest.NewRecorder()
		w.fd.ServeHTTP(rec, req.WithContext(w.ctx))
		switch {
		case w.cfg.Mutation == MutationLostReply && i == rate-1:
		case rec.Code == http.StatusOK:
			w.seen.OK++
		case rec.Code == http.StatusBadGateway:
			w.seen.Gateway++
		case rec.Code == http.StatusServiceUnavailable && rec.Header().Get("Retry-After") != "":
			w.seen.Shed++
		case rec.Code == http.StatusServiceUnavailable:
			w.seen.Faulted++ // injected on the replica's link
		default:
			w.seen.Other++
		}
	}
	w.clock.Advance(start.Add(time.Second).Sub(w.clock.Now()))
	for _, r := range w.replicas {
		if r.rep != nil && r.life.Stopped.IsZero() && (r.alive || w.cfg.Mutation == MutationZombieHeartbeat) {
			//soclint:ignore errdiscard a lapsed lease is no longer published; its heartbeat simply stops mattering
			_ = w.leases.Heartbeat(r.name)
		}
	}
	err := w.scaler.Tick(w.ctx)
	now := w.clock.Now()
	for _, r := range w.replicas {
		if r.rep == nil {
			continue
		}
		if w.cfg.Mutation == MutationStopUndrained && r.rep.Draining() {
			w.retire(r)
		}
		l := &r.life
		l.InRotation, l.Picks = w.fd.Replica(r.name) != nil, r.rep.Picks()
		if r.rep.Draining() && l.Drained.IsZero() {
			l.Drained = now
		}
		if !l.Killed.IsZero() && !l.InRotation && l.Gone.IsZero() {
			l.Gone, l.GonePicks = now, l.Picks
		}
	}
	st, as := w.fd.Stats(), w.scaler.Stats()
	return errString(err), fmt.Sprintf(
		"admitted=%d,completed=%d,errored=%d,shedq=%d,shedb=%d,running=%d,draining=%d,launched=%d,stopped=%d,lost=%d,demand=%d,target=%d,ok=%d,fault=%d,gw=%d,shed=%d,other=%d",
		st.Admitted, st.Completed, st.Errored, st.ShedQueue, st.ShedBusy,
		as.Running, as.Draining, as.Launched, as.Stopped, as.Lost, as.LastDemand, as.LastTarget,
		w.seen.OK, w.seen.Faulted, w.seen.Gateway, w.seen.Shed, w.seen.Other)
}

// checkStep runs the invariant checkers after a step: the per-step ones
// on this step's record, the cumulative ones on the aggregates so far,
// and after a window the four cluster ones.
func (w *World) checkStep(sr StepRecord) []Violation {
	var out []Violation
	out = append(out, CheckTraceStep(sr.Index, sr.Step.Kind, sr.Spans)...)
	if sr.Step.Kind != StepProbe {
		// A probe's delivery is answered by /healthz, which records no
		// span: delivery accounting covers service requests only.
		out = append(out, CheckDelivery(sr.Index, sr.Delivered, sr.ServerSpans, sr.CacheSpans)...)
	}
	out = append(out, CheckBreakerEdges(sr.Transitions)...)
	out = append(out, CheckCacheOnce(sr.Index, w.handlerRuns)...)
	names := make([]string, 0, len(w.qosAgg))
	for name := range w.qosAgg {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		q, ok := w.qosReg.QoSOf(name)
		out = append(out, CheckQoSBounds(sr.Index, name, *w.qosAgg[name], q, ok)...)
	}
	for i, r := range w.replicas {
		if !r.alive {
			// A dead replica's directory is unreadable by definition; its
			// ledger is settled the moment it restarts and recovers.
			continue
		}
		out = append(out, CheckDurable(sr.Index, r.name, w.acked[i], r.dreg)...)
	}
	// The workflow audit is only consulted after steps that moved
	// workflow state: starts and resumes append to journals, restarts
	// recover them (the moment the acked ⇒ durable comparison bites).
	switch sr.Step.Kind {
	case StepWorkflowStart, StepWorkflowResume, StepRestart:
		for i, r := range w.replicas {
			if !r.alive {
				continue
			}
			out = append(out, CheckWorkflows(sr.Index, r.name, w.wfAcked[i], r.orch.Audits())...)
		}
	}
	if sr.Step.Kind == StepWindow && w.fd != nil {
		var lives []ReplicaLife
		for _, r := range w.replicas {
			if r.rep != nil {
				lives = append(lives, r.life)
			}
		}
		out = append(out, CheckClusterAccounting(sr.Index, w.fd.Stats(), w.seen)...)
		out = append(out, CheckClusterBounds(sr.Index, w.scaler.Stats(), w.cfg.Door)...)
		out = append(out, CheckClusterDrain(sr.Index, lives)...)
		out = append(out, CheckClusterExpiry(sr.Index, w.clock.Now(), lives)...)
	}
	return out
}

// runWorkflow composes two resilient calls — credit score, then password
// strength — as a workflow Sequence, so workflow spans join the same
// trace plane the call steps exercise.
func (w *World) runWorkflow(client *host.ResilientClient, args map[string]string) (core.Values, []string, error) {
	inv := workflow.InvokerFunc(func(ctx context.Context, service, operation string, a map[string]any) (map[string]any, error) {
		out, err := client.Call(ctx, service, operation, core.Values(a))
		return map[string]any(out), err
	})
	wf, err := workflow.New("score-and-check", &workflow.Sequence{
		Label: "score-and-check",
		Steps: []workflow.Activity{
			&workflow.Invoke{
				Label: "credit-score", Service: "CreditScore", Operation: "Score", Invoker: inv,
				Inputs: map[string]string{"ssn": "ssn"}, Outputs: map[string]string{"score": "score"},
			},
			&workflow.Invoke{
				Label: "check-strength", Service: "RandomString", Operation: "CheckStrength", Invoker: inv,
				Inputs: map[string]string{"password": "password"}, Outputs: map[string]string{"strong": "strong"},
			},
		},
	})
	if err != nil {
		return nil, nil, err
	}
	ctx := telemetry.ContextWithTracer(w.ctx, w.clientTracer)
	out, tr, err := wf.Run(ctx, map[string]any{"ssn": args["ssn"], "password": args["password"]})
	var names []string
	if tr != nil {
		names = tr.Names()
	}
	return core.Values(out), names, err
}

// logLine renders one step as a canonical event-log line: everything
// deterministic (virtual times, outcomes, counters), nothing wall-clock
// or randomized (no span IDs, no durations measured in real time).
func (w *World) logLine(sr StepRecord) string {
	var b strings.Builder
	fmt.Fprintf(&b, "step=%d t=%dms kind=%s", sr.Index, w.clock.Now().Sub(simEpoch)/time.Millisecond, sr.Step.Kind)
	switch sr.Step.Kind {
	case StepCall:
		fmt.Fprintf(&b, " client=%d op=%s.%s args=%s", sr.Step.Client, sr.Step.Service, sr.Step.Op, canonStringMap(sr.Step.Args))
	case StepWorkflow:
		fmt.Fprintf(&b, " client=%d args=%s", sr.Step.Client, canonStringMap(sr.Step.Args))
	case StepKill, StepRestart, StepProbe:
		fmt.Fprintf(&b, " replica=%d", sr.Step.Replica)
	case StepPublish:
		fmt.Fprintf(&b, " replica=%d service=%s args=%s", sr.Step.Replica, sr.Step.Service, canonStringMap(sr.Step.Args))
	case StepUnpublish, StepRenew:
		fmt.Fprintf(&b, " replica=%d service=%s", sr.Step.Replica, sr.Step.Service)
	case StepWorkflowStart:
		fmt.Fprintf(&b, " replica=%d def=%s args=%s afterAppends=%d",
			sr.Step.Replica, sr.Step.Def, canonStringMap(sr.Step.Args), sr.Step.AfterAppends)
	case StepWorkflowResume:
		fmt.Fprintf(&b, " replica=%d", sr.Step.Replica)
	case StepAdvance:
		fmt.Fprintf(&b, " advance=%dms", sr.Step.AdvanceMs)
	case StepWindow:
		fmt.Fprintf(&b, " rate=%d", sr.Step.Rate)
	}
	fmt.Fprintf(&b, " err=%q out=%s elapsed=%dms delivered=%d server=%d cached=%d",
		sr.Err, sr.Out, sr.ElapsedMs, sr.Delivered, sr.ServerSpans, sr.CacheSpans)
	if len(sr.Transitions) > 0 {
		b.WriteString(" transitions=")
		for i, t := range sr.Transitions {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "c%d:%s:%s>%s", t.Client, t.Replica, t.From, t.To)
		}
	}
	return b.String()
}

// settleSteps synthesizes the next settle round: restart what is down,
// resume what is pending. A replica the autoscaler stopped stays
// retired. Empty means the world has settled.
func (w *World) settleSteps() []Step {
	var out []Step
	for idx, r := range w.replicas {
		switch {
		case !r.life.Stopped.IsZero():
		case !r.alive:
			out = append(out, Step{Kind: StepRestart, Replica: idx})
		case len(r.orch.Pending()) > 0:
			out = append(out, Step{Kind: StepWorkflowResume, Replica: idx})
		}
	}
	return out
}

// checkSettled enforces the eventually-terminal half of the workflow
// invariant once the settle phase ends: no replica still down, no
// instance still pending.
func (w *World) checkSettled(step int) []Violation {
	var out []Violation
	for _, r := range w.replicas {
		if !r.life.Stopped.IsZero() {
			continue
		}
		if !r.alive {
			out = append(out, Violation{Step: step, Invariant: InvWorkflowSettle,
				Detail: r.name + " still down after the settle phase"})
			continue
		}
		for _, id := range r.orch.Pending() {
			out = append(out, Violation{Step: step, Invariant: InvWorkflowSettle,
				Detail: fmt.Sprintf("%s: instance %s never reached a terminal status", r.name, id)})
		}
	}
	return out
}

func drain(t *telemetry.Tracer) []telemetry.Span {
	s := t.Snapshot()
	t.Reset()
	return s
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// canonValues renders a Values map canonically: keys sorted, values in
// their lexical forms.
func canonValues(v core.Values) string {
	if len(v) == 0 {
		return "-"
	}
	keys := v.Keys()
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + core.FormatValue(v[k])
	}
	return strings.Join(parts, "&")
}

func canonStringMap(m map[string]string) string {
	if len(m) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + m[k]
	}
	return strings.Join(parts, "&")
}

func mod(i, n int) int {
	if n <= 0 {
		return 0
	}
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// fnv64 hashes a link name into the injector seed derivation.
func fnv64(s string) int64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int64(h)
}
