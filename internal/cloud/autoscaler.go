package cloud

import (
	"context"
	"fmt"
	"sync"
	"time"

	"soc/internal/registry"
	"soc/internal/vtime"
)

// Launcher starts and stops real replicas for the Autoscaler: an
// implementation owns the replica's process/goroutine lifecycle and its
// registry presence (publish + heartbeats on Launch, unpublish on Stop).
type Launcher interface {
	// Launch starts replica number id and returns it ready to serve.
	Launch(ctx context.Context, id int) (*Replica, error)
	// Stop tears the replica down. The autoscaler only calls Stop for
	// replicas that are fully drained (in-flight zero) or already dead
	// (lease expired out of the rotation).
	Stop(ctx context.Context, rep *Replica) error
}

// ReplicaCategory is the registry category under which a Launcher
// publishes each replica's lease; the autoscaler reads the live leases
// in it.
const ReplicaCategory = "replica"

// AutoscalerOptions configure the real autoscaler.
type AutoscalerOptions struct {
	// Policy is the pure sizing rule; ReplicaCapacity is per evaluation
	// window (one Tick).
	Policy Policy
	// Cooldown is the minimum spacing between scaling actions.
	Cooldown time.Duration
	// Interval is Run's evaluation period — the policy window.
	Interval time.Duration
	// Directory, when set, makes membership registry-driven: each Tick
	// prunes the front door's rotation against the live leases in
	// ReplicaCategory, so replicas whose leases expired (killed, wedged)
	// drop out of rotation and out of the autoscaler's books. A live
	// lease the autoscaler did not launch never joins the rotation.
	Directory registry.Directory
}

// Autoscaler sizes a live cluster: each Tick it measures demand (admitted
// requests since the last tick), asks the Policy for a target, and
// launches or drains replicas under a cooldown. Scale-down never drops
// work: a victim replica is marked draining (no new picks), keeps serving
// what it holds, and is only stopped on a later tick once its in-flight
// count reaches zero.
type Autoscaler struct {
	fd       *FrontDoor
	launcher Launcher
	opts     AutoscalerOptions

	mu           sync.Mutex
	running      []*Replica
	draining     []*Replica
	cool         Cooldown
	lastAdmitted uint64
	nextID       int
	launched     int
	stopped      int
	lost         int // removed because their lease expired
	lastDemand   int
	lastTarget   int
}

// NewAutoscaler wires an autoscaler to the front door it feeds. Call
// Prime to launch the initial MinReplicas before serving.
func NewAutoscaler(fd *FrontDoor, l Launcher, opts AutoscalerOptions) (*Autoscaler, error) {
	if err := opts.Policy.Validate(); err != nil {
		return nil, err
	}
	if opts.Cooldown < 0 || opts.Interval < 0 {
		return nil, fmt.Errorf("%w: negative cooldown/interval", ErrConfig)
	}
	if opts.Interval == 0 {
		opts.Interval = time.Second
	}
	if l == nil {
		return nil, fmt.Errorf("%w: nil launcher", ErrConfig)
	}
	return &Autoscaler{fd: fd, launcher: l, opts: opts}, nil
}

// Prime launches the policy's MinReplicas into the rotation.
func (a *Autoscaler) Prime(ctx context.Context) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for len(a.running) < a.opts.Policy.MinReplicas {
		if err := a.launchLocked(ctx); err != nil {
			return err
		}
	}
	return nil
}

func (a *Autoscaler) launchLocked(ctx context.Context) error {
	a.nextID++
	rep, err := a.launcher.Launch(ctx, a.nextID)
	if err != nil {
		a.nextID--
		return err
	}
	a.running = append(a.running, rep)
	a.launched++
	a.fd.Add(rep)
	return nil
}

// AutoscalerStats is one snapshot of the scaler's books.
type AutoscalerStats struct {
	Running    int `json:"running"`
	Draining   int `json:"draining"`
	Launched   int `json:"launched"`
	Stopped    int `json:"stopped"`
	Lost       int `json:"lost"`
	LastDemand int `json:"lastDemand"`
	LastTarget int `json:"lastTarget"`
}

// Stats snapshots the scaler's books.
func (a *Autoscaler) Stats() AutoscalerStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AutoscalerStats{
		Running: len(a.running), Draining: len(a.draining),
		Launched: a.launched, Stopped: a.stopped, Lost: a.lost,
		LastDemand: a.lastDemand, LastTarget: a.lastTarget,
	}
}

// Tick runs one evaluation: reconcile membership with the registry,
// finalize drained replicas, measure the window's demand, and act on the
// policy's verdict under the cooldown, timed on ctx's clock
// (vtime.ClockFrom). Deterministic given deterministic inputs — the
// virtual-clock cluster scenario calls it directly.
func (a *Autoscaler) Tick(ctx context.Context) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// 1. Registry-driven membership: the live lease view is the truth.
	// Replicas whose leases expired leave the rotation; if one of them is
	// on our books it is dead, not drained — stop it and forget it.
	if a.opts.Directory != nil {
		a.fd.SyncMembership(a.opts.Directory.ByCategory(ReplicaCategory))
		survivors := a.running[:0]
		for _, rep := range a.running {
			if a.fd.Replica(rep.Name()) != nil {
				survivors = append(survivors, rep)
				continue
			}
			a.lost++
			keep(a.launcher.Stop(ctx, rep))
		}
		a.running = survivors
	}

	// 2. Finalize drains: a draining replica with nothing in flight can
	// stop; one still holding requests waits for a later tick — never a
	// drain race.
	stillDraining := a.draining[:0]
	for _, rep := range a.draining {
		if rep.InFlight() > 0 {
			stillDraining = append(stillDraining, rep)
			continue
		}
		a.fd.Remove(rep.Name())
		a.stopped++
		keep(a.launcher.Stop(ctx, rep))
	}
	a.draining = stillDraining

	// 3. Demand: requests the door admitted since the last tick.
	admitted := a.fd.admitted.Load()
	demand := int(admitted - a.lastAdmitted)
	a.lastAdmitted = admitted
	a.lastDemand = demand

	// 4. Policy under cooldown.
	now := vtime.Now(ctx).UnixNano()
	if !a.cool.Ready(now, int64(a.opts.Cooldown)) {
		return firstErr
	}
	target, dir := a.opts.Policy.Evaluate(demand, len(a.running))
	a.lastTarget = target
	switch dir {
	case ScaleUp:
		for len(a.running) < target {
			if err := a.launchLocked(ctx); err != nil {
				keep(err)
				break
			}
		}
		a.cool.Fire(now)
	case ScaleDown:
		// Drain newest first, never below the minimum.
		for len(a.running) > target && len(a.running) > a.opts.Policy.MinReplicas {
			victim := a.running[len(a.running)-1]
			a.running = a.running[:len(a.running)-1]
			a.fd.MarkDraining(victim.Name(), true)
			a.draining = append(a.draining, victim)
		}
		a.cool.Fire(now)
	}
	return firstErr
}

// Run evaluates every Interval on ctx's clock until ctx is done. It is
// the live-mode loop; deterministic harnesses call Tick directly instead.
func (a *Autoscaler) Run(ctx context.Context) error {
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if err := vtime.Sleep(ctx, a.opts.Interval); err != nil {
			return err
		}
		if err := a.Tick(ctx); err != nil {
			// Scaling hiccups (a launch that failed) are retried next
			// tick; the loop itself only ends with the context.
			continue
		}
	}
}
