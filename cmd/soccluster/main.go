// Command soccluster runs the elastic cluster data plane live: a front
// door balancing over a pool of in-process replica hosts (each the full
// SOAP/REST host serving the Encryption service with a modeled
// per-request service time), with registry-lease membership and the
// shared scaling policy driving a real autoscaler.
//
//	soccluster -addr :8446 -replicas 3 -work 2ms -replica-cap 1
//	soccluster -addr :8446 -replicas 1 -naive            # no admission control
//	soccluster -addr :8446 -min 1 -max 8 -cooldown 3s    # elastic pool
//
// Then drive it with the load generator and watch the balancer:
//
//	socload -target http://localhost:8446 -rate 800 -duration 10s
//	curl http://localhost:8446/clusterz
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"soc/internal/cloud"
	"soc/internal/host"
	"soc/internal/registry"
	"soc/internal/rest"
	"soc/internal/services"
	"soc/internal/vtime"
)

func main() {
	addr := flag.String("addr", ":8446", "front door listen address")
	replicas := flag.Int("replicas", 3, "fixed replica count (-min/-max override for an elastic pool)")
	minR := flag.Int("min", 0, "minimum replicas (0: -replicas)")
	maxR := flag.Int("max", 0, "maximum replicas (0: -replicas)")
	work := flag.Duration("work", 2*time.Millisecond, "modeled per-request service time on every replica")
	replCap := flag.Int("replica-cap", 1, "per-replica concurrent request cap")
	maxInFlight := flag.Int("max-inflight", 0, "front door concurrent proxy cap (0: max replicas × replica-cap)")
	queue := flag.Int("queue", 0, "admission queue depth (0: same as the in-flight cap)")
	queueTimeout := flag.Duration("queue-timeout", 100*time.Millisecond, "longest admission-queue wait before shedding")
	naive := flag.Bool("naive", false, "disable admission control: unbounded queue, never shed (the saturation study's 'before')")
	cooldown := flag.Duration("cooldown", 3*time.Second, "minimum spacing between scaling actions")
	interval := flag.Duration("interval", time.Second, "autoscaler evaluation period")
	capacity := flag.Int("capacity", 0, "requests one replica absorbs per interval (0: interval/work × replica-cap)")
	target := flag.Float64("target", 0.7, "policy target utilization")
	lease := flag.Duration("lease", 15*time.Second, "registry lease duration")
	heartbeat := flag.Duration("heartbeat", 5*time.Second, "replica heartbeat period")
	flag.Parse()

	low, high := *minR, *maxR
	if low <= 0 {
		low = *replicas
	}
	if high <= 0 {
		high = max(*replicas, low)
	}
	per := *capacity
	if per <= 0 && *work > 0 {
		per = int(float64(*interval)/float64(*work)) * *replCap
	}
	if per <= 0 {
		per = 1
	}
	inFlight := *maxInFlight
	if inFlight <= 0 {
		inFlight = high * *replCap
	}
	queueDepth, queueWait := *queue, *queueTimeout
	if *naive {
		queueDepth, queueWait = -1, -1 // unbounded, never timed out
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg := registry.New(registry.WithLease(*lease))
	fd := cloud.NewFrontDoor(cloud.FrontDoorConfig{
		MaxInFlight:  inFlight,
		QueueDepth:   queueDepth,
		QueueTimeout: queueWait,
	})
	launcher := &localLauncher{
		ctx:       ctx,
		reg:       reg,
		work:      *work,
		replCap:   *replCap,
		heartbeat: *heartbeat,
		cancels:   make(map[string]context.CancelFunc),
	}
	scaler, err := cloud.NewAutoscaler(fd, launcher, cloud.AutoscalerOptions{
		Policy: cloud.Policy{
			MinReplicas:       low,
			MaxReplicas:       high,
			ReplicaCapacity:   per,
			TargetUtilization: *target,
		},
		Cooldown:  *cooldown,
		Interval:  *interval,
		Directory: reg,
	})
	if err != nil {
		log.Fatalf("soccluster: %v", err)
	}
	if err := scaler.Prime(ctx); err != nil {
		log.Fatalf("soccluster: priming replicas: %v", err)
	}
	go func() {
		//soclint:ignore errdiscard Run only returns the shutdown context's error
		_ = scaler.Run(ctx)
	}()

	srv := &http.Server{Addr: *addr, Handler: fd, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		<-ctx.Done()
		shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		//soclint:ignore errdiscard shutdown errors leave nothing to act on; the process is exiting
		_ = srv.Shutdown(shctx)
	}()
	mode := "admission control"
	if *naive {
		mode = "naive (no admission control)"
	}
	log.Printf("soccluster: front door on %s — replicas %d..%d, work %v, cap %d/replica, %s (GET /clusterz)",
		*addr, low, high, *work, *replCap, mode)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("soccluster: %v", err)
	}
	stop()
	launcher.wg.Wait()
}

// localLauncher runs replicas as in-process hosts: each Launch builds a
// full host (so the front door proxies the same catalog surface a real
// machine would serve), publishes its registry entry, and heartbeats the
// lease until Stop — killing a replica is exactly "stop heartbeating".
type localLauncher struct {
	ctx       context.Context // heartbeats end when the process does
	reg       *registry.Registry
	work      time.Duration
	replCap   int
	heartbeat time.Duration

	mu      sync.Mutex
	cancels map[string]context.CancelFunc
	wg      sync.WaitGroup
}

func (l *localLauncher) Launch(_ context.Context, id int) (*cloud.Replica, error) {
	name := fmt.Sprintf("replica-%d", id)
	h, err := buildReplicaHost(l.work)
	if err != nil {
		return nil, err
	}
	if err := l.reg.Publish(registry.Entry{
		Name:     name,
		Category: cloud.ReplicaCategory,
		Endpoint: "local://" + name,
		Doc:      "soccluster in-process replica",
		Provider: "soccluster",
	}); err != nil {
		return nil, err
	}
	hbCtx, cancel := context.WithCancel(l.ctx)
	l.mu.Lock()
	l.cancels[name] = cancel
	l.mu.Unlock()
	l.wg.Add(1)
	go l.heartbeatLoop(hbCtx, name)
	rep := cloud.NewLocalReplica(name, h, l.replCap)
	// A scale-down drain reaches the host itself: its /healthz flips to
	// 503 "draining" while the replica empties out.
	rep.DrainNotify = h.SetDraining
	return rep, nil
}

func (l *localLauncher) heartbeatLoop(ctx context.Context, name string) {
	defer l.wg.Done()
	clock := vtime.Real{}
	for {
		if err := clock.Sleep(ctx, l.heartbeat); err != nil {
			return
		}
		if err := l.reg.Heartbeat(name); err != nil {
			return // unpublished: the replica was stopped
		}
	}
}

func (l *localLauncher) Stop(_ context.Context, rep *cloud.Replica) error {
	l.mu.Lock()
	cancel := l.cancels[rep.Name()]
	delete(l.cancels, rep.Name())
	l.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if err := l.reg.Unpublish(rep.Name()); err != nil {
		// A lease-expired replica may already be gone from the registry.
		log.Printf("soccluster: unpublish %s: %v", rep.Name(), err)
	}
	return nil
}

// buildReplicaHost assembles one replica: the Encryption service behind
// a middleware charging the modeled service time. The charge is
// outermost — cache hits pay it too — so cluster capacity is exactly
// replicas × replica-cap / work no matter the request mix, which is what
// makes the saturation study's arithmetic checkable.
func buildReplicaHost(work time.Duration) (*host.Host, error) {
	h := host.New()
	enc, err := services.NewEncryption()
	if err != nil {
		return nil, err
	}
	if err := h.Mount(enc); err != nil {
		return nil, err
	}
	if work > 0 {
		clock := vtime.Real{}
		h.Use(func(next rest.HandlerFunc) rest.HandlerFunc {
			return func(w http.ResponseWriter, r *http.Request, p rest.Params) {
				//soclint:ignore errdiscard a canceled request skips straight to the handler, which sees the dead context itself
				_ = clock.Sleep(r.Context(), work)
				next(w, r, p)
			}
		})
	}
	return h, nil
}
