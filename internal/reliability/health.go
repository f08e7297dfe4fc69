package reliability

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// ErrUnhealthy reports a replica whose health endpoint answered badly.
var ErrUnhealthy = errors.New("reliability: replica unhealthy")

// ProbeFunc checks one replica; a nil error means healthy. The context
// carries the per-probe timeout.
type ProbeFunc func(ctx context.Context, replica string) error

// HTTPProbe returns a ProbeFunc that issues GET replica+path (path is
// appended verbatim, so "" probes the replica URL itself) with client (nil
// means a 30 s timeout client; the checker's per-probe context additionally
// bounds each request) and treats any 2xx answer as healthy.
func HTTPProbe(client *http.Client, path string) ProbeFunc {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return func(ctx context.Context, replica string) error {
		//soclint:ignore ctxpropagate probes run on the checker's own schedule with no caller trace to carry, and callplane would import-cycle with reliability
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, replica+path, nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrUnhealthy, err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		if resp.StatusCode < 200 || resp.StatusCode > 299 {
			return fmt.Errorf("%w: status %d", ErrUnhealthy, resp.StatusCode)
		}
		return nil
	}
}

// HealthCheckerConfig configures a HealthChecker.
type HealthCheckerConfig struct {
	// Interval between probe rounds (> 0).
	Interval time.Duration
	// Timeout bounds each probe; 0 means Interval.
	Timeout time.Duration
	// FallThreshold is how many consecutive probe failures demote a
	// healthy replica; 0 means 1 (demote on first failure).
	FallThreshold int
	// RiseThreshold is how many consecutive probe successes promote an
	// unhealthy replica; 0 means 1.
	RiseThreshold int
	// Probe checks a replica; nil uses HTTPProbe(nil, "/healthz").
	Probe ProbeFunc
	// OnProbe, when set, observes every probe outcome — the hook that
	// feeds measured health into registry QoS records.
	OnProbe func(replica string, healthy bool, rtt time.Duration)
	// OnTransition, when set, observes demotions and promotions.
	OnTransition func(replica string, healthy bool)
}

// replicaHealth is the checker's view of one replica.
type replicaHealth struct {
	healthy   bool
	succseq   int // consecutive successes
	failseq   int // consecutive failures
	lastProbe time.Time
	lastErr   error
}

// HealthChecker actively probes a fixed replica set and classifies each
// replica healthy or unhealthy with fall/rise hysteresis. Replicas start
// healthy (optimistic) until the first probe says otherwise. All methods
// are safe for concurrent use.
type HealthChecker struct {
	cfg      HealthCheckerConfig
	replicas []string

	mu    sync.Mutex
	state map[string]*replicaHealth

	probes     uint64
	demotions  uint64
	promotions uint64

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewHealthChecker returns a checker over the replicas. Start launches
// the probe loop; CheckNow probes synchronously.
func NewHealthChecker(cfg HealthCheckerConfig, replicas ...string) (*HealthChecker, error) {
	if len(replicas) == 0 {
		return nil, errors.New("reliability: health checker needs replicas")
	}
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("reliability: health interval %v", cfg.Interval)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = cfg.Interval
	}
	if cfg.FallThreshold <= 0 {
		cfg.FallThreshold = 1
	}
	if cfg.RiseThreshold <= 0 {
		cfg.RiseThreshold = 1
	}
	if cfg.Probe == nil {
		cfg.Probe = HTTPProbe(nil, "/healthz")
	}
	hc := &HealthChecker{
		cfg:      cfg,
		replicas: append([]string(nil), replicas...),
		state:    make(map[string]*replicaHealth, len(replicas)),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, r := range replicas {
		if _, dup := hc.state[r]; dup {
			return nil, fmt.Errorf("reliability: duplicate replica %q", r)
		}
		hc.state[r] = &replicaHealth{healthy: true}
	}
	return hc, nil
}

// Start launches the background probe loop (one immediate round, then one
// per interval). Stop terminates it. Only the first Start launches a loop;
// a Start after Stop launches none.
func (hc *HealthChecker) Start(ctx context.Context) {
	hc.startOnce.Do(func() {
		go func() {
			defer close(hc.done)
			hc.CheckNow(ctx)
			//soclint:ignore clockdiscipline the health prober is deliberately wall-clock-driven; the simulation harness drives CheckNow directly instead of Start
			t := time.NewTicker(hc.cfg.Interval)
			defer t.Stop()
			for {
				select {
				case <-hc.stop:
					return
				case <-ctx.Done():
					return
				case <-t.C:
					hc.CheckNow(ctx)
				}
			}
		}()
	})
}

// Stop halts the probe loop and waits for it to exit. Safe to call more
// than once, and before Start, when it returns at once.
func (hc *HealthChecker) Stop() {
	hc.stopOnce.Do(func() { close(hc.stop) })
	hc.startOnce.Do(func() { close(hc.done) }) // no loop launched: nothing to wait for
	select {
	case <-hc.done:
	//soclint:ignore clockdiscipline shutdown watchdog against a stuck probe loop; bounds real waiting, never simulated
	case <-time.After(5 * time.Second):
	}
}

// CheckNow probes every replica once, concurrently, and applies the
// fall/rise thresholds. A probe that fails because ctx ended is nobody's
// fault: it is not counted, moves no threshold and reaches no OnProbe.
func (hc *HealthChecker) CheckNow(ctx context.Context) {
	var wg sync.WaitGroup
	for _, r := range hc.replicas {
		wg.Add(1)
		go func(replica string) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, hc.cfg.Timeout)
			defer cancel()
			//soclint:ignore clockdiscipline probe RTT is measured in wall time by design; it feeds QoS records, not simulated schedules
			start := time.Now()
			err := hc.cfg.Probe(pctx, replica)
			if err != nil && ctx.Err() != nil {
				return
			}
			//soclint:ignore clockdiscipline probe RTT is measured in wall time by design; it feeds QoS records, not simulated schedules
			hc.observe(replica, err, time.Since(start))
		}(r)
	}
	wg.Wait()
}

func (hc *HealthChecker) observe(replica string, err error, rtt time.Duration) {
	hc.mu.Lock()
	st := hc.state[replica]
	hc.probes++
	//soclint:ignore clockdiscipline last-probe timestamp is diagnostic metadata, never compared against simulated time
	st.lastProbe = time.Now()
	st.lastErr = err
	var transitioned bool
	if err == nil {
		st.succseq++
		st.failseq = 0
		if !st.healthy && st.succseq >= hc.cfg.RiseThreshold {
			st.healthy = true
			hc.promotions++
			transitioned = true
		}
	} else {
		st.failseq++
		st.succseq = 0
		if st.healthy && st.failseq >= hc.cfg.FallThreshold {
			st.healthy = false
			hc.demotions++
			transitioned = true
		}
	}
	healthy := st.healthy
	hc.mu.Unlock()

	if hc.cfg.OnProbe != nil {
		hc.cfg.OnProbe(replica, err == nil, rtt)
	}
	if transitioned && hc.cfg.OnTransition != nil {
		hc.cfg.OnTransition(replica, healthy)
	}
}

// IsHealthy reports the current classification of a replica; unknown
// replicas are unhealthy.
func (hc *HealthChecker) IsHealthy(replica string) bool {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	st, ok := hc.state[replica]
	return ok && st.healthy
}

// Healthy returns the currently healthy replicas in registration order.
func (hc *HealthChecker) Healthy() []string {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	out := make([]string, 0, len(hc.replicas))
	for _, r := range hc.replicas {
		if hc.state[r].healthy {
			out = append(out, r)
		}
	}
	return out
}

// Counters reports probes issued, demotions and promotions so far —
// the observability hook the chaos suite asserts on.
func (hc *HealthChecker) Counters() (probes, demotions, promotions uint64) {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	return hc.probes, hc.demotions, hc.promotions
}

// LastError returns the most recent probe error of a replica (nil when
// the last probe succeeded or the replica was never probed).
func (hc *HealthChecker) LastError(replica string) error {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	if st, ok := hc.state[replica]; ok {
		return st.lastErr
	}
	return fmt.Errorf("reliability: unknown replica %q", replica)
}
