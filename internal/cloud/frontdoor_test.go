package cloud

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"soc/internal/registry"
	"soc/internal/telemetry"
	"soc/internal/vtime"
)

// epoch matches the simtest virtual epoch so virtual-clock tests here
// read naturally alongside the scenario harness.
var epoch = time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)

func okHandler(body string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, body)
	})
}

// sleepHandler serves after d elapses on the request clock — virtual
// clocks advance instantly, so tests stay fast and deterministic.
func sleepHandler(d time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = vtime.Sleep(r.Context(), d)
		w.WriteHeader(http.StatusOK)
	})
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestFrontDoorProxiesToReplica(t *testing.T) {
	fd := NewFrontDoor(FrontDoorConfig{})
	fd.Add(NewLocalReplica("r1", okHandler("hello"), 0))
	rec := get(t, fd, "/services/Echo/invoke/Echo")
	if rec.Code != http.StatusOK || rec.Body.String() != "hello" {
		t.Fatalf("proxy: got %d %q", rec.Code, rec.Body.String())
	}
	st := fd.Stats()
	if st.Admitted != 1 || st.Completed != 1 || st.Shed() != 0 {
		t.Fatalf("stats after one call: %+v", st)
	}
}

func TestFrontDoorNoReplicasSheds(t *testing.T) {
	fd := NewFrontDoor(FrontDoorConfig{})
	rec := get(t, fd, "/x")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("empty rotation: got %d, want 503", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatalf("503 must carry Retry-After")
	}
	if st := fd.Stats(); st.ShedBusy != 1 {
		t.Fatalf("shedBusy = %d, want 1: %+v", st.ShedBusy, st)
	}
}

// TestFrontDoorP2CSkewedLatency: the skewed-latency replica must receive
// measurably fewer picks — the defining property of p2c over EWMA scores.
func TestFrontDoorP2CSkewedLatency(t *testing.T) {
	clock := vtime.NewVirtual(epoch)
	fd := NewFrontDoor(FrontDoorConfig{Seed: 7})
	// Virtual sleeps advance the shared clock, so the slow replica's
	// samples land in its EWMA while fast replicas stay near zero.
	fd.Add(NewLocalReplica("fast-a", sleepHandler(time.Millisecond), 0))
	fd.Add(NewLocalReplica("fast-b", sleepHandler(time.Millisecond), 0))
	fd.Add(NewLocalReplica("slow", sleepHandler(50*time.Millisecond), 0))

	const calls = 3000
	for i := 0; i < calls; i++ {
		req := httptest.NewRequest(http.MethodGet, "/ping", nil)
		req = req.WithContext(vtime.WithClock(req.Context(), clock))
		rec := httptest.NewRecorder()
		fd.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("call %d: %d", i, rec.Code)
		}
	}
	slow := fd.Replica("slow").Picks()
	fastA := fd.Replica("fast-a").Picks()
	fastB := fd.Replica("fast-b").Picks()
	if slow+fastA+fastB != calls {
		t.Fatalf("picks %d+%d+%d != %d", slow, fastA, fastB, calls)
	}
	// Uniform would give each ~1000. The slow replica should win only the
	// i==j-avoiding draws that never sample a fast sibling — p2c theory
	// says roughly 1/3 of its uniform share; assert well under half.
	if slow >= calls/6 {
		t.Fatalf("slow replica got %d of %d picks; p2c should starve it below %d (fast: %d, %d)",
			slow, calls, calls/6, fastA, fastB)
	}
	if fastA == 0 || fastB == 0 {
		t.Fatalf("fast replicas must both serve: %d, %d", fastA, fastB)
	}
}

// TestFrontDoorShedsWhenSaturated: with every in-flight slot held, an
// arrival waits QueueTimeout in the admission queue and is then shed with
// 503 + Retry-After, metered in /metricz under frontdoor.shed.
func TestFrontDoorShedsWhenSaturated(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{})
	fd := NewFrontDoor(FrontDoorConfig{MaxInFlight: 2, QueueTimeout: time.Millisecond})
	fd.Add(NewLocalReplica("r1", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-block
	}), 0))

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			get(t, fd, "/hold")
		}()
		<-started
	}
	rec := get(t, fd, "/one-too-many")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated door: got %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatalf("shed response must carry Retry-After")
	}
	close(block)
	wg.Wait()
	if st := fd.Stats(); st.ShedQueue != 1 || st.Admitted != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if snap := fd.Metrics().Snapshot(); snap["frontdoor.shed"].Calls != 1 {
		t.Fatalf("frontdoor.shed not metered: %+v", snap["frontdoor.shed"])
	}
}

// TestFrontDoorRetriesDeadReplica: a transport-level failure replays the
// request (body included) against a sibling; the client sees success.
func TestFrontDoorRetriesDeadReplica(t *testing.T) {
	fd := NewFrontDoor(FrontDoorConfig{Seed: 3})
	fd.Add(NewReplica("dead", roundTripperFunc(func(req *http.Request) (*http.Response, error) {
		return nil, errors.New("connection refused")
	}), 0))
	fd.Add(NewLocalReplica("live", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b := make([]byte, 5)
		n, _ := r.Body.Read(b)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(b[:n])
	}), 0))

	ok := 0
	for i := 0; i < 40; i++ {
		req := httptest.NewRequest(http.MethodPost, "/echo", strings.NewReader("ping!"))
		rec := httptest.NewRecorder()
		fd.ServeHTTP(rec, req)
		if rec.Code == http.StatusOK {
			ok++
			if rec.Body.String() != "ping!" {
				t.Fatalf("replayed body mangled: %q", rec.Body.String())
			}
		}
	}
	// With MaxAttempts 2 the only failures are dead→dead double draws,
	// impossible here with two replicas and distinct p2c candidates.
	if ok != 40 {
		t.Fatalf("retry over dead replica: %d/40 ok", ok)
	}
}

type roundTripperFunc func(*http.Request) (*http.Response, error)

func (f roundTripperFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestFrontDoorDrainingReceivesNoPicks: draining excludes a replica from
// new picks while keeping it visible in the rotation.
func TestFrontDoorDrainingReceivesNoPicks(t *testing.T) {
	fd := NewFrontDoor(FrontDoorConfig{Seed: 5})
	fd.Add(NewLocalReplica("a", okHandler("a"), 0))
	fd.Add(NewLocalReplica("b", okHandler("b"), 0))
	fd.MarkDraining("b", true)
	for i := 0; i < 50; i++ {
		if rec := get(t, fd, "/x"); rec.Code != http.StatusOK {
			t.Fatalf("call %d: %d", i, rec.Code)
		}
	}
	if picks := fd.Replica("b").Picks(); picks != 0 {
		t.Fatalf("draining replica got %d picks", picks)
	}
	if got := fd.Replica("a").Picks(); got != 50 {
		t.Fatalf("healthy replica got %d picks, want 50", got)
	}
	if len(fd.Replicas()) != 2 {
		t.Fatalf("draining replica must stay visible")
	}
}

func TestFrontDoorClusterz(t *testing.T) {
	fd := NewFrontDoor(FrontDoorConfig{MaxInFlight: 8})
	fd.Add(NewLocalReplica("r1", okHandler("x"), 4))
	fd.Add(NewLocalReplica("r2", okHandler("y"), 4))
	fd.MarkDraining("r2", true)
	for i := 0; i < 10; i++ {
		get(t, fd, "/work")
	}
	rec := get(t, fd, "/clusterz")
	if rec.Code != http.StatusOK {
		t.Fatalf("/clusterz: %d", rec.Code)
	}
	var rep clusterzReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if rep.MaxInFlight != 8 || len(rep.Replicas) != 2 {
		t.Fatalf("report: %+v", rep)
	}
	states := map[string]string{}
	var picks uint64
	for _, rs := range rep.Replicas {
		states[rs.Name] = rs.State
		picks += rs.Picks
		if rs.MaxInFlight != 4 {
			t.Fatalf("replica %s maxInFlight %d", rs.Name, rs.MaxInFlight)
		}
	}
	if states["r1"] != "healthy" || states["r2"] != "draining" {
		t.Fatalf("states: %v", states)
	}
	if picks != 10 || rep.Stats.Admitted != 10 {
		t.Fatalf("picks %d admitted %d, want 10", picks, rep.Stats.Admitted)
	}
}

func TestFrontDoorMetriczShape(t *testing.T) {
	fd := NewFrontDoor(FrontDoorConfig{})
	fd.Add(NewLocalReplica("r1", okHandler("x"), 0))
	get(t, fd, "/work")
	rec := get(t, fd, "/metricz")
	var rep telemetry.MetricsReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("decode: %v", err)
	}
	op, ok := rep.Operations["frontdoor.proxy"]
	if !ok || op.Calls != 1 {
		t.Fatalf("frontdoor.proxy not metered: %+v", rep.Operations)
	}
	if op.P50Nanos != op.P99Nanos || op.MaxNanos > op.P99Nanos {
		t.Fatalf("one sample, but p50 %d p99 %d max %d ns", op.P50Nanos, op.P99Nanos, op.MaxNanos)
	}
}

// TestFrontDoorMetriczMatchesHost: for equal counters the door serves the
// bytes the host serves — telemetry's golden is the host's /metricz body
// for these four records (TestReportGolden).
func TestFrontDoorMetriczMatchesHost(t *testing.T) {
	fd := NewFrontDoor(FrontDoorConfig{})
	m := fd.Metrics()
	m.Record("Calc.Add", 50*time.Microsecond, false)
	m.Record("Calc.Add", 2*time.Second, true)
	m.RecordCached("Calc.Add")
	m.RecordCached("Idle.Op")
	want, err := os.ReadFile("../telemetry/testdata/metricz.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	rec := get(t, fd, "/metricz")
	if rec.Body.String() != string(want) {
		t.Errorf("front door /metricz differs from the host's:\n%s", rec.Body.String())
	}
}

// TestFrontDoorLeaseExpiryDropsReplica: membership follows the registry's
// live view — an expired lease takes the replica out of rotation.
func TestFrontDoorLeaseExpiryDropsReplica(t *testing.T) {
	clock := vtime.NewVirtual(epoch)
	reg := registry.New(registry.WithLease(time.Minute), registry.WithClock(clock.Now))
	fd := NewFrontDoor(FrontDoorConfig{})
	for _, name := range []string{"r1", "r2"} {
		if err := reg.Publish(registry.Entry{Name: name, Category: ReplicaCategory, Endpoint: "local"}); err != nil {
			t.Fatalf("publish %s: %v", name, err)
		}
		fd.Add(NewLocalReplica(name, okHandler(name), 0))
	}
	if removed := fd.SyncMembership(reg.ByCategory(ReplicaCategory)); removed != 0 {
		t.Fatalf("initial sync removed %d live replicas", removed)
	}

	// r1 keeps heartbeating; r2 goes silent and its lease expires.
	clock.Advance(40 * time.Second)
	if err := reg.Heartbeat("r1"); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	clock.Advance(40 * time.Second)
	if removed := fd.SyncMembership(reg.ByCategory(ReplicaCategory)); removed != 1 {
		t.Fatalf("post-expiry sync removed %d replicas, want 1", removed)
	}
	if fd.Replica("r2") != nil {
		t.Fatalf("expired replica still in rotation")
	}
	for i := 0; i < 20; i++ {
		rec := get(t, fd, "/x")
		if rec.Code != http.StatusOK || rec.Body.String() != "r1" {
			t.Fatalf("call %d routed to %q (%d), want r1", i, rec.Body.String(), rec.Code)
		}
	}
}

// TestFrontDoorPerReplicaCapSheds: when every replica is at its own cap,
// the door answers 503 (shedBusy), not 502.
func TestFrontDoorPerReplicaCapSheds(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{})
	fd := NewFrontDoor(FrontDoorConfig{MaxInFlight: 8})
	fd.Add(NewLocalReplica("tiny", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-block
	}), 1))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		get(t, fd, "/hold")
	}()
	<-started
	rec := get(t, fd, "/over-cap")
	close(block)
	wg.Wait()
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("over replica cap: got %d, want 503", rec.Code)
	}
	if st := fd.Stats(); st.ShedBusy != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestFrontDoorCallerGaveUpIsNotAReplicaFailure: an exchange that fails
// because its caller cancelled, or the caller's own deadline passed, says
// nothing about the replica — no penalty sample in its EWMA, no failure
// counted, no replay — and the door's ledger still closes.
func TestFrontDoorCallerGaveUpIsNotAReplicaFailure(t *testing.T) {
	for _, tc := range []struct {
		name    string
		timeout time.Duration // 0: the caller cancels once the replica has the request
	}{
		{"cancelled", 0},
		{"deadline passed", 10 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			if tc.timeout > 0 {
				ctx, cancel = context.WithTimeout(context.Background(), tc.timeout)
			}
			defer cancel()
			attempts := 0
			fd := NewFrontDoor(FrontDoorConfig{})
			fd.Add(NewReplica("r", roundTripperFunc(func(req *http.Request) (*http.Response, error) {
				if req.URL.Path != "/hang" {
					return HandlerTransport(okHandler("pong")).RoundTrip(req)
				}
				attempts++
				if tc.timeout == 0 {
					cancel()
				}
				<-req.Context().Done()
				return nil, req.Context().Err()
			}), 0))
			if rec := get(t, fd, "/ping"); rec.Code != http.StatusOK {
				t.Fatalf("healthy exchange: %d", rec.Code)
			}
			before := fd.Replica("r").Status()

			rec := httptest.NewRecorder()
			fd.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/hang", nil).WithContext(ctx))

			if rec.Code != http.StatusBadGateway {
				t.Fatalf("status %d, want 502", rec.Code)
			}
			if attempts != 1 {
				t.Fatalf("%d attempts at a request nobody waits for, want 1", attempts)
			}
			after := fd.Replica("r").Status()
			if after.EWMALatencyNanos != before.EWMALatencyNanos || after.Failed != before.Failed {
				t.Fatalf("replica blamed for its caller: EWMA %d → %d ns, failed %d → %d",
					before.EWMALatencyNanos, after.EWMALatencyNanos, before.Failed, after.Failed)
			}
			if st := fd.Stats(); st.Errored != 1 || st.Admitted != st.Completed+st.Errored+st.ShedBusy {
				t.Fatalf("ledger open: %+v", st)
			}
		})
	}
}

// TestFrontDoorChurnParallel: proxied requests race a writer that adds,
// removes and drains replicas. Every request ends in a replica's 200 or
// the door's own 503 or 502, and once the churn stops a drained replica
// receives no further pick.
func TestFrontDoorChurnParallel(t *testing.T) {
	fd := NewFrontDoor(FrontDoorConfig{Seed: 3})
	reps := make([]*Replica, 5)
	for i := range reps {
		reps[i] = NewLocalReplica(fmt.Sprintf("r%d", i), okHandler("ok"), 0)
	}
	done := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			rep := reps[i%len(reps)]
			switch i % 3 {
			case 0:
				fd.Add(rep)
			case 1:
				fd.MarkDraining(rep.Name(), i%2 == 0)
			case 2:
				fd.Remove(reps[(i+2)%len(reps)].Name())
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				rec := httptest.NewRecorder()
				fd.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
				switch rec.Code {
				case http.StatusOK, http.StatusServiceUnavailable, http.StatusBadGateway:
				default:
					t.Errorf("request %d: status %d", i, rec.Code)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	churn.Wait()

	// Drain the replica p2c favours most, so a pick that ignored the
	// draining flag would land on it.
	drained := reps[0]
	for _, rep := range reps {
		fd.Add(rep)
		fd.MarkDraining(rep.Name(), false)
		if rep.score() < drained.score() {
			drained = rep
		}
	}
	fd.MarkDraining(drained.Name(), true)
	before := drained.Picks()
	for i := 0; i < 200; i++ {
		if rec := get(t, fd, "/x"); rec.Code != http.StatusOK {
			t.Fatalf("after churn, call %d: %d", i, rec.Code)
		}
	}
	if got := drained.Picks(); got != before {
		t.Fatalf("draining replica %s picked %d times after the churn stopped", drained.Name(), got-before)
	}
}
