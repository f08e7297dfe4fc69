package simtest

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"soc/internal/cloud"
	"soc/internal/registry"
	"soc/internal/vtime"
)

// Cluster invariant names.
const (
	// InvClusterAccounting: the front door's ledger closes every window —
	// admitted == completed + errored + shedBusy, and the counters agree
	// with what clients actually observed. An admitted request that a
	// scale-down (or anything else) silently dropped breaks this.
	InvClusterAccounting = "cluster-accounting"
	// InvClusterBounds: the running pool stays inside [MinReplicas,
	// MaxReplicas] at every window.
	InvClusterBounds = "cluster-bounds"
	// InvClusterDrain: no replica is ever stopped with requests still in
	// flight — scale-down drains, it never drops.
	InvClusterDrain = "cluster-drain"
	// InvClusterExpiry: a killed replica leaves the rotation once its
	// lease expires and is never picked again afterwards.
	InvClusterExpiry = "cluster-expiry"
)

// ClusterConfig sizes the deterministic elastic-cluster scenario: a
// front door plus autoscaler on the virtual clock, driven by a ramp
// up/down load profile with replica kills mid-ramp. The zero value gets
// workable defaults.
type ClusterConfig struct {
	// Policy is the shared sizing rule (default 2..6 replicas, capacity
	// 50/window, target utilization 0.7).
	Policy cloud.Policy
	// Cooldown spaces scaling actions (default 3 s virtual).
	Cooldown time.Duration
	// Lease is the registry lease; a killed replica stops heartbeating
	// and expires out of rotation after this long (default 5 s virtual).
	Lease time.Duration
	// FaultRate is the seeded probability a replica answers 500 — the
	// injected fault class admitted requests are allowed to fail with
	// (default 0.03).
	FaultRate float64
	// Seed drives every random choice (backend faults, balancer picks).
	Seed int64
	// Profile is requests per one-second window; nil uses
	// DefaultClusterProfile (warm, ramp up, peak, ramp down, cool).
	Profile []int
	// KillAt marks windows at whose start the newest healthy replica is
	// killed (process death: stops heartbeating, refuses connections);
	// nil uses DefaultClusterKills — one kill on each ramp.
	KillAt map[int]bool
}

// DefaultClusterProfile is the smoke's load shape: 5 warm windows at 20
// req/s, a 10-window ramp to 200, 10 at peak, a 10-window ramp back
// down, 10 cool windows at 10 — enough swing to force scale-up to the
// maximum and scale-down drains on the way back.
func DefaultClusterProfile() []int {
	var p []int
	for i := 0; i < 5; i++ {
		p = append(p, 20)
	}
	for i := 1; i <= 10; i++ {
		p = append(p, 20+18*i)
	}
	for i := 0; i < 10; i++ {
		p = append(p, 200)
	}
	for i := 1; i <= 10; i++ {
		p = append(p, 200-18*i)
	}
	for i := 0; i < 10; i++ {
		p = append(p, 10)
	}
	return p
}

// DefaultClusterKills kills one replica in the middle of each ramp.
func DefaultClusterKills() map[int]bool { return map[int]bool{9: true, 28: true} }

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Policy == (cloud.Policy{}) {
		c.Policy = cloud.Policy{MinReplicas: 2, MaxReplicas: 6, ReplicaCapacity: 50, TargetUtilization: 0.7}
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 3 * time.Second
	}
	if c.Lease <= 0 {
		c.Lease = 5 * time.Second
	}
	if c.FaultRate == 0 {
		c.FaultRate = 0.03
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Profile == nil {
		c.Profile = DefaultClusterProfile()
	}
	if c.KillAt == nil {
		c.KillAt = DefaultClusterKills()
	}
	return c
}

// ClusterRecord is one completed cluster run: the canonical per-window
// log with its determinism hash, every invariant violation, and the
// final ledgers.
type ClusterRecord struct {
	Violations []Violation
	Log        []string
	Hash       string
	FrontDoor  cloud.FrontDoorStats
	Scaler     cloud.AutoscalerStats
	// Pool[w] is the autoscaler's books as window w began — the pool
	// that window's requests were served with (Running) and billed for
	// (Running plus Draining, until a drained replica stops).
	Pool []cloud.AutoscalerStats
	// Client-observed outcome classes across the whole run.
	OK      int // 200 from a replica
	Faulted int // 500 injected by a replica
	Gateway int // 502: every attempt failed (kill window)
	Shed    int // 503: admission control
	Killed  int // replicas killed by the schedule
}

// clusterBackend is one simulated replica process: alive it answers in
// zero virtual time (the scenario paces time explicitly), dead it
// refuses connections like a killed process.
type clusterBackend struct {
	name  string
	alive bool
	rng   *rand.Rand
	rate  float64
	serve int
}

func (b *clusterBackend) RoundTrip(req *http.Request) (*http.Response, error) {
	if !b.alive {
		return nil, fmt.Errorf("simnet: %s: connection refused", b.name)
	}
	b.serve++
	rec := httptest.NewRecorder()
	if b.rng.Float64() < b.rate {
		rec.WriteHeader(http.StatusInternalServerError)
		//soclint:ignore errdiscard httptest recorder writes cannot fail
		_, _ = rec.WriteString(`{"error":"injected fault"}`)
	} else {
		rec.WriteHeader(http.StatusOK)
		//soclint:ignore errdiscard httptest recorder writes cannot fail
		_, _ = rec.WriteString(`{"ok":true}`)
	}
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

// clusterLauncher starts and stops simulated replica processes and
// records the one thing the smoke gates hardest on: a Stop with
// requests still in flight (a drain race).
type clusterLauncher struct {
	w               *clusterWorld
	backends        map[string]*clusterBackend
	reps            map[string]*cloud.Replica
	stopped         map[string]bool
	drainViolations int
}

func (l *clusterLauncher) Launch(_ context.Context, id int) (*cloud.Replica, error) {
	name := fmt.Sprintf("replica-%d", id)
	b := &clusterBackend{name: name, alive: true, rng: rand.New(rand.NewSource(l.w.cfg.Seed ^ fnv64(name))), rate: l.w.cfg.FaultRate}
	if err := l.w.reg.Publish(registry.Entry{Name: name, Category: "replica", Endpoint: "sim://" + name, Provider: "cluster-sim"}); err != nil {
		return nil, err
	}
	rep := cloud.NewReplica(name, b, 0)
	l.backends[name] = b
	l.reps[name] = rep
	return rep, nil
}

func (l *clusterLauncher) Stop(_ context.Context, rep *cloud.Replica) error {
	if rep.InFlight() > 0 {
		l.drainViolations++
	}
	l.stopped[rep.Name()] = true
	//soclint:ignore errdiscard a lease-expired replica may already be gone from the registry
	_ = l.w.reg.Unpublish(rep.Name())
	return nil
}

// clusterWorld is the deterministic elastic-cluster universe: virtual
// clock, lease registry, front door, autoscaler, simulated replica
// processes. Single-threaded; every source of randomness is seeded.
type clusterWorld struct {
	cfg      ClusterConfig
	clock    *vtime.Virtual
	ctx      context.Context
	reg      *registry.Registry
	fd       *cloud.FrontDoor
	scaler   *cloud.Autoscaler
	launcher *clusterLauncher

	// expiry bookkeeping per killed replica.
	killedAt   map[string]int    // window the kill happened in
	goneAt     map[string]int    // window the rotation first dropped it
	gonePicks  map[string]uint64 // its pick counter at that moment
	violations []Violation
}

// RunCluster executes the scenario and returns the full record. The
// returned error reports harness malfunction only; invariant violations
// are data. Two runs of the same config produce the same Hash — that is
// the determinism contract the smoke test holds it to.
func RunCluster(cfg ClusterConfig) (*ClusterRecord, error) {
	cfg = cfg.withDefaults()
	w := &clusterWorld{
		cfg:       cfg,
		clock:     vtime.NewVirtual(simEpoch),
		killedAt:  map[string]int{},
		goneAt:    map[string]int{},
		gonePicks: map[string]uint64{},
	}
	w.ctx = vtime.WithClock(context.Background(), w.clock)
	w.reg = registry.New(registry.WithClock(w.clock.Now), registry.WithLease(cfg.Lease))
	w.fd = cloud.NewFrontDoor(cloud.FrontDoorConfig{Clock: w.clock, Seed: cfg.Seed})
	w.launcher = &clusterLauncher{
		w:        w,
		backends: map[string]*clusterBackend{},
		reps:     map[string]*cloud.Replica{},
		stopped:  map[string]bool{},
	}
	scaler, err := cloud.NewAutoscaler(w.fd, w.launcher, cloud.AutoscalerOptions{
		Policy:    cfg.Policy,
		Cooldown:  cfg.Cooldown,
		Interval:  time.Second,
		Clock:     w.clock,
		Directory: w.reg,
		Category:  "replica",
	})
	if err != nil {
		return nil, err
	}
	w.scaler = scaler
	if err := scaler.Prime(w.ctx); err != nil {
		return nil, err
	}

	rec := &ClusterRecord{}
	for wi, rate := range cfg.Profile {
		rec.Pool = append(rec.Pool, w.scaler.Stats())
		if cfg.KillAt[wi] {
			w.kill(wi)
			rec.Killed++
		}
		if rate < 1 {
			rate = 1
		}
		pace := time.Second / time.Duration(rate)
		var ok, faulted, gateway, shed int
		for i := 0; i < rate; i++ {
			switch status := w.call(); status {
			case http.StatusOK:
				ok++
			case http.StatusInternalServerError:
				faulted++
			case http.StatusBadGateway:
				gateway++
			case http.StatusServiceUnavailable:
				shed++
			default:
				w.violate(wi, InvClusterAccounting, "unexpected client status %d", status)
			}
			w.clock.Advance(pace)
		}
		// The division truncates; make up the remainder so every window
		// is exactly one second and a one-window cooldown is ready on time.
		w.clock.Advance(time.Second - time.Duration(rate)*pace)
		rec.OK += ok
		rec.Faulted += faulted
		rec.Gateway += gateway
		rec.Shed += shed
		w.heartbeatAlive()
		if err := w.scaler.Tick(w.ctx); err != nil {
			w.violate(wi, InvClusterBounds, "tick failed: %v", err)
		}
		w.checkWindow(wi, rec)
		st, as := w.fd.Stats(), w.scaler.Stats()
		rec.Log = append(rec.Log, fmt.Sprintf(
			"w=%d t=%dms rate=%d admitted=%d completed=%d errored=%d shedq=%d shedb=%d running=%d draining=%d launched=%d stopped=%d lost=%d demand=%d target=%d ok=%d fault=%d gw=%d shed=%d",
			wi, w.clock.Now().Sub(simEpoch)/time.Millisecond, rate,
			st.Admitted, st.Completed, st.Errored, st.ShedQueue, st.ShedBusy,
			as.Running, as.Draining, as.Launched, as.Stopped, as.Lost, as.LastDemand, as.LastTarget,
			ok, faulted, gateway, shed))
	}
	// Quiesce: let every pending drain finalize.
	for i := 0; i < 3; i++ {
		w.clock.Advance(time.Second)
		w.heartbeatAlive()
		if err := w.scaler.Tick(w.ctx); err != nil {
			w.violate(len(cfg.Profile), InvClusterBounds, "quiesce tick failed: %v", err)
		}
	}
	w.checkWindow(len(cfg.Profile), rec)

	rec.Violations = w.violations
	rec.FrontDoor = w.fd.Stats()
	rec.Scaler = w.scaler.Stats()
	sum := sha256.Sum256([]byte(strings.Join(rec.Log, "\n")))
	rec.Hash = hex.EncodeToString(sum[:])
	return rec, nil
}

// call pushes one request through the front door and returns the status
// the client saw.
func (w *clusterWorld) call() int {
	req := httptest.NewRequest(http.MethodGet, "http://cluster/services/Echo/invoke/Ping", nil)
	req = req.WithContext(w.ctx)
	rec := httptest.NewRecorder()
	w.fd.ServeHTTP(rec, req)
	return rec.Code
}

// kill takes the newest healthy replica down the hard way: the process
// dies mid-service, so it refuses connections and its lease silently
// runs out.
func (w *clusterWorld) kill(window int) {
	var victim *clusterBackend
	for _, rep := range w.fd.Replicas() {
		b := w.launcher.backends[rep.Name()]
		if b == nil || !b.alive || rep.Draining() {
			continue
		}
		if victim == nil || b.name > victim.name {
			victim = b
		}
	}
	if victim == nil {
		return
	}
	victim.alive = false
	w.killedAt[victim.name] = window
}

// heartbeatAlive renews the lease of every live, unstopped replica —
// exactly what a real replica's heartbeat goroutine does each second.
func (w *clusterWorld) heartbeatAlive() {
	for name, b := range w.launcher.backends {
		if !b.alive || w.launcher.stopped[name] {
			continue
		}
		//soclint:ignore errdiscard a draining replica may already be unpublished; its heartbeat simply stops mattering
		_ = w.reg.Heartbeat(name)
	}
}

func (w *clusterWorld) violate(window int, inv, format string, args ...any) {
	w.violations = append(w.violations, Violation{Step: window, Invariant: inv, Detail: fmt.Sprintf(format, args...)})
}

// checkWindow audits the cluster invariants after one window.
func (w *clusterWorld) checkWindow(window int, rec *ClusterRecord) {
	st := w.fd.Stats()
	// The ledger closes: nothing admitted is unaccounted for. (The world
	// is single-threaded, so no request is in flight between windows.)
	if st.Admitted != st.Completed+st.Errored+st.ShedBusy {
		w.violate(window, InvClusterAccounting,
			"admitted %d != completed %d + errored %d + shedBusy %d",
			st.Admitted, st.Completed, st.Errored, st.ShedBusy)
	}
	// Counters match what clients observed: every admitted request came
	// back as a replica response (200/500) or an exhausted-attempts 502;
	// every shed came back 503.
	if uint64(rec.OK+rec.Faulted) != st.Completed || uint64(rec.Gateway) != st.Errored {
		w.violate(window, InvClusterAccounting,
			"client saw ok=%d fault=%d gw=%d; door completed=%d errored=%d",
			rec.OK, rec.Faulted, rec.Gateway, st.Completed, st.Errored)
	}
	if uint64(rec.Shed) != st.ShedQueue+st.ShedBusy {
		w.violate(window, InvClusterAccounting,
			"client saw shed=%d; door shed=%d", rec.Shed, st.ShedQueue+st.ShedBusy)
	}

	as := w.scaler.Stats()
	if as.Running < w.cfg.Policy.MinReplicas || as.Running > w.cfg.Policy.MaxReplicas {
		w.violate(window, InvClusterBounds, "running %d outside [%d,%d]",
			as.Running, w.cfg.Policy.MinReplicas, w.cfg.Policy.MaxReplicas)
	}
	if w.launcher.drainViolations > 0 {
		w.violate(window, InvClusterDrain, "%d replica(s) stopped with requests in flight", w.launcher.drainViolations)
	}

	// Killed replicas: once the lease runs out the rotation must drop
	// them, and their pick counters must freeze forever after.
	leaseWindows := int(w.cfg.Lease/time.Second) + 2
	for name, killed := range w.killedAt {
		inRotation := w.fd.Replica(name) != nil
		if gone, ok := w.goneAt[name]; ok {
			if inRotation {
				w.violate(window, InvClusterExpiry, "%s re-entered rotation after expiry", name)
			}
			if picks := w.launcher.reps[name].Picks(); picks != w.gonePicks[name] {
				w.violate(window, InvClusterExpiry,
					"%s picked after leaving rotation at w=%d: picks %d -> %d",
					name, gone, w.gonePicks[name], picks)
			}
			continue
		}
		if !inRotation {
			w.goneAt[name] = window
			w.gonePicks[name] = w.launcher.reps[name].Picks()
			continue
		}
		if window-killed > leaseWindows {
			w.violate(window, InvClusterExpiry,
				"%s killed at w=%d still in rotation at w=%d (lease %v)",
				name, killed, window, w.cfg.Lease)
		}
	}
}
