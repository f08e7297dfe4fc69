package cloud

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"soc/internal/registry"
	"soc/internal/vtime"
)

// fakeLauncher runs replicas as in-process handlers and records every
// Stop — including any drain race (a Stop while requests were still in
// flight), the violation the cluster smoke gates on.
type fakeLauncher struct {
	reg             *registry.Registry // optional registry presence
	launchedNames   []string
	stoppedNames    []string
	drainViolations int
}

func (l *fakeLauncher) Launch(ctx context.Context, id int) (*Replica, error) {
	name := fmt.Sprintf("replica-%d", id)
	l.launchedNames = append(l.launchedNames, name)
	if l.reg != nil {
		if err := l.reg.Publish(registry.Entry{Name: name, Category: ReplicaCategory, Endpoint: "local://" + name}); err != nil {
			return nil, err
		}
	}
	return NewLocalReplica(name, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}), 0), nil
}

func (l *fakeLauncher) Stop(ctx context.Context, rep *Replica) error {
	if rep.InFlight() > 0 {
		l.drainViolations++
	}
	l.stoppedNames = append(l.stoppedNames, rep.Name())
	if l.reg != nil {
		_ = l.reg.Unpublish(rep.Name())
	}
	return nil
}

func newScaler(t *testing.T, l Launcher, p Policy, cooldown time.Duration) (*FrontDoor, *Autoscaler) {
	t.Helper()
	fd := NewFrontDoor(FrontDoorConfig{})
	a, err := NewAutoscaler(fd, l, AutoscalerOptions{
		Policy: p, Cooldown: cooldown, Interval: time.Second,
	})
	if err != nil {
		t.Fatalf("NewAutoscaler: %v", err)
	}
	return fd, a
}

func TestAutoscalerPrimeAndScaleUp(t *testing.T) {
	clock := vtime.NewVirtual(epoch)
	l := &fakeLauncher{}
	fd, a := newScaler(t, l, Policy{MinReplicas: 1, MaxReplicas: 5, ReplicaCapacity: 100, TargetUtilization: 1}, 0)
	ctx := vtime.WithClock(context.Background(), clock)
	if err := a.Prime(ctx); err != nil {
		t.Fatalf("Prime: %v", err)
	}
	if st := a.Stats(); st.Running != 1 {
		t.Fatalf("after Prime: %+v", st)
	}
	fd.admitted.Add(350) // the window's demand
	if err := a.Tick(ctx); err != nil {
		t.Fatalf("Tick: %v", err)
	}
	st := a.Stats()
	if st.Running != 4 || st.LastDemand != 350 || st.LastTarget != 4 {
		t.Fatalf("after demand 350: %+v", st)
	}
	if len(fd.Replicas()) != 4 {
		t.Fatalf("rotation has %d replicas, want 4", len(fd.Replicas()))
	}
}

func TestAutoscalerCooldownGatesActions(t *testing.T) {
	clock := vtime.NewVirtual(epoch)
	l := &fakeLauncher{}
	fd, a := newScaler(t, l, Policy{MinReplicas: 1, MaxReplicas: 8, ReplicaCapacity: 100, TargetUtilization: 1}, 10*time.Second)
	ctx := vtime.WithClock(context.Background(), clock)
	if err := a.Prime(ctx); err != nil {
		t.Fatalf("Prime: %v", err)
	}
	fd.admitted.Add(250)
	if err := a.Tick(ctx); err != nil {
		t.Fatalf("Tick: %v", err)
	}
	if st := a.Stats(); st.Running != 3 {
		t.Fatalf("first action: %+v", st)
	}
	// 5s later more demand arrives — inside the cooldown, no action.
	clock.Advance(5 * time.Second)
	fd.admitted.Add(600)
	if err := a.Tick(ctx); err != nil {
		t.Fatalf("Tick: %v", err)
	}
	if st := a.Stats(); st.Running != 3 {
		t.Fatalf("cooldown violated: %+v", st)
	}
	// Once the window passes, the next evaluation acts.
	clock.Advance(6 * time.Second)
	fd.admitted.Add(600)
	if err := a.Tick(ctx); err != nil {
		t.Fatalf("Tick: %v", err)
	}
	if st := a.Stats(); st.Running != 6 {
		t.Fatalf("post-cooldown: %+v", st)
	}
}

func TestAutoscalerScaleDownDrainsBeforeStopping(t *testing.T) {
	clock := vtime.NewVirtual(epoch)
	l := &fakeLauncher{}
	fd, a := newScaler(t, l, Policy{MinReplicas: 1, MaxReplicas: 5, ReplicaCapacity: 100, TargetUtilization: 1}, 0)
	ctx := vtime.WithClock(context.Background(), clock)
	if err := a.Prime(ctx); err != nil {
		t.Fatalf("Prime: %v", err)
	}
	fd.admitted.Add(400)
	if err := a.Tick(ctx); err != nil {
		t.Fatalf("scale up: %v", err)
	}
	if st := a.Stats(); st.Running != 4 {
		t.Fatalf("setup: %+v", st)
	}

	// Every replica holds one request when demand vanishes.
	reps := fd.Replicas()
	for _, rep := range reps {
		if !rep.tryAcquire() {
			t.Fatalf("acquire on %s", rep.Name())
		}
	}
	if err := a.Tick(ctx); err != nil { // demand 0 → target 1 → 3 drain
		t.Fatalf("scale down: %v", err)
	}
	st := a.Stats()
	if st.Running != 1 || st.Draining != 3 || st.Stopped != 0 {
		t.Fatalf("drain started: %+v", st)
	}
	if l.drainViolations != 0 {
		t.Fatalf("stop while in flight")
	}
	// Still holding: another tick must not stop them.
	if err := a.Tick(ctx); err != nil {
		t.Fatalf("Tick: %v", err)
	}
	if st := a.Stats(); st.Stopped != 0 || st.Draining != 3 {
		t.Fatalf("drain raced: %+v", st)
	}
	// Release everything; the next tick finalizes the drains.
	for _, rep := range reps {
		rep.release()
	}
	if err := a.Tick(ctx); err != nil {
		t.Fatalf("finalize: %v", err)
	}
	st = a.Stats()
	if st.Stopped != 3 || st.Draining != 0 || st.Running != 1 {
		t.Fatalf("after finalize: %+v", st)
	}
	if l.drainViolations != 0 {
		t.Fatalf("drain violations: %d", l.drainViolations)
	}
	if got := len(fd.Replicas()); got != 1 {
		t.Fatalf("rotation still has %d replicas", got)
	}
}

// TestAutoscalerLeaseExpiryReapsDeadReplica: a replica that stops
// heartbeating (killed) is removed from rotation and from the scaler's
// books via the registry's lease view, then capacity is replaced.
func TestAutoscalerLeaseExpiryReapsDeadReplica(t *testing.T) {
	clock := vtime.NewVirtual(epoch)
	reg := registry.New(registry.WithLease(time.Minute), registry.WithClock(clock.Now))
	l := &fakeLauncher{reg: reg}
	fd := NewFrontDoor(FrontDoorConfig{})
	a, err := NewAutoscaler(fd, l, AutoscalerOptions{
		Policy:    Policy{MinReplicas: 2, MaxReplicas: 4, ReplicaCapacity: 100, TargetUtilization: 1},
		Directory: reg,
	})
	if err != nil {
		t.Fatalf("NewAutoscaler: %v", err)
	}
	ctx := vtime.WithClock(context.Background(), clock)
	if err := a.Prime(ctx); err != nil {
		t.Fatalf("Prime: %v", err)
	}

	// replica-1 heartbeats; replica-2 went dark at t0 and expires.
	clock.Advance(40 * time.Second)
	if err := reg.Heartbeat("replica-1"); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	clock.Advance(40 * time.Second)
	if err := a.Tick(ctx); err != nil {
		t.Fatalf("Tick: %v", err)
	}
	st := a.Stats()
	if st.Lost != 1 {
		t.Fatalf("dead replica not reaped: %+v", st)
	}
	// The same tick's policy pass relaunches back to the minimum.
	if st.Running != 2 {
		t.Fatalf("capacity not replaced: %+v", st)
	}
	if fd.Replica("replica-2") != nil {
		t.Fatalf("expired replica still in rotation")
	}
}

// TestAutoscalerIgnoresForeignLease: a live replica lease the autoscaler
// did not launch never enters the rotation or the scaler's books.
func TestAutoscalerIgnoresForeignLease(t *testing.T) {
	clock := vtime.NewVirtual(epoch)
	reg := registry.New(registry.WithLease(time.Minute), registry.WithClock(clock.Now))
	if err := reg.Publish(registry.Entry{Name: "foreign", Category: ReplicaCategory, Endpoint: "local://foreign"}); err != nil {
		t.Fatalf("publish: %v", err)
	}
	l := &fakeLauncher{reg: reg}
	fd := NewFrontDoor(FrontDoorConfig{})
	a, err := NewAutoscaler(fd, l, AutoscalerOptions{
		Policy:    Policy{MinReplicas: 2, MaxReplicas: 4, ReplicaCapacity: 100, TargetUtilization: 1},
		Directory: reg,
	})
	if err != nil {
		t.Fatalf("NewAutoscaler: %v", err)
	}
	ctx := vtime.WithClock(context.Background(), clock)
	if err := a.Prime(ctx); err != nil {
		t.Fatalf("Prime: %v", err)
	}
	for i := 0; i < 3; i++ {
		clock.Advance(time.Second)
		if err := a.Tick(ctx); err != nil {
			t.Fatalf("Tick %d: %v", i, err)
		}
		if fd.Replica("foreign") != nil {
			t.Fatalf("tick %d: the foreign lease joined the rotation", i)
		}
	}
	if got, st := len(fd.Replicas()), a.Stats(); got != 2 || st.Running != 2 || st.Launched != 2 {
		t.Fatalf("rotation holds %d replicas, books %+v; want the 2 launched", got, st)
	}
}

// TestAutoscalerDrainProperty drives random demand traces and random
// in-flight holds through the scaler and asserts the safety properties:
// pool bounds hold, scaling actions respect the cooldown, and no replica
// is ever stopped with requests in flight.
func TestAutoscalerDrainProperty(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clock := vtime.NewVirtual(epoch)
		l := &fakeLauncher{}
		p := Policy{
			MinReplicas:       1 + rng.Intn(2),
			MaxReplicas:       3 + rng.Intn(5),
			ReplicaCapacity:   50 + rng.Intn(100),
			TargetUtilization: 0.5 + 0.5*rng.Float64(),
		}
		cooldown := time.Duration(rng.Intn(8)) * time.Second
		fd, a := newScaler(t, l, p, cooldown)
		ctx := vtime.WithClock(context.Background(), clock)
		if err := a.Prime(ctx); err != nil {
			t.Fatalf("seed %d: Prime: %v", seed, err)
		}

		var held []*Replica
		var lastAction int64
		haveAction := false
		for step := 0; step < 120; step++ {
			clock.Advance(time.Duration(500+rng.Intn(2000)) * time.Millisecond)
			fd.admitted.Add(uint64(rng.Intn(p.MaxReplicas * p.ReplicaCapacity * 2)))
			// Randomly hold and release replica slots, draining or not.
			for _, rep := range fd.Replicas() {
				if rng.Intn(3) == 0 && rep.tryAcquire() {
					held = append(held, rep)
				}
			}
			for len(held) > 0 && rng.Intn(2) == 0 {
				held[len(held)-1].release()
				held = held[:len(held)-1]
			}

			prevFired, prevLast := a.cool.fired, a.cool.last
			if err := a.Tick(ctx); err != nil {
				t.Fatalf("seed %d step %d: Tick: %v", seed, step, err)
			}
			if a.cool.fired && (!prevFired || a.cool.last != prevLast) {
				// A scaling action fired this tick.
				if haveAction && a.cool.last-lastAction < int64(cooldown) {
					t.Fatalf("seed %d step %d: actions %v apart, cooldown %v",
						seed, step, time.Duration(a.cool.last-lastAction), cooldown)
				}
				lastAction, haveAction = a.cool.last, true
			}
			st := a.Stats()
			if st.Running < p.MinReplicas || st.Running > p.MaxReplicas {
				t.Fatalf("seed %d step %d: running %d outside [%d,%d]",
					seed, step, st.Running, p.MinReplicas, p.MaxReplicas)
			}
			if l.drainViolations != 0 {
				t.Fatalf("seed %d step %d: replica stopped with requests in flight", seed, step)
			}
			// Draining replicas are out of the eligible pick set.
			fd.mu.Lock()
			eligible := fd.eligible
			fd.mu.Unlock()
			for _, rep := range eligible {
				if rep.Draining() {
					t.Fatalf("seed %d step %d: draining replica in eligible set", seed, step)
				}
			}
		}
		// Quiesce: release all holds; two more ticks must finalize every
		// drain without violations.
		for _, rep := range held {
			rep.release()
		}
		clock.Advance(time.Minute)
		for i := 0; i < 2; i++ {
			if err := a.Tick(ctx); err != nil {
				t.Fatalf("seed %d quiesce: %v", seed, err)
			}
			clock.Advance(time.Minute)
		}
		if st := a.Stats(); st.Draining != 0 && st.Running+st.Draining > p.MaxReplicas {
			t.Fatalf("seed %d: drains never finalized: %+v", seed, st)
		}
		if l.drainViolations != 0 {
			t.Fatalf("seed %d: %d drain violations", seed, l.drainViolations)
		}
	}
}
