package reliability

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"soc/internal/vtime"
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
	// Interval between probe rounds (> 0); it also bounds each probe,
	// so a probe never outlives its round.
	Interval time.Duration
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
}

// replicaHealth is the checker's view of one replica.
type replicaHealth struct {
	healthy bool
	succseq int // consecutive successes
	failseq int // consecutive failures
	lastErr error
}

// HealthChecker actively probes a fixed replica set and classifies each
// replica healthy or unhealthy with fall/rise hysteresis. Replicas start
// healthy (optimistic) until the first probe says otherwise. Every probe
// runs on the clock its context carries (vtime.ClockFrom): its deadline
// and its RTT are that clock's, so under a vtime.Virtual a probe costs
// virtual time only. All methods are safe for concurrent use.
type HealthChecker struct {
	cfg      HealthCheckerConfig
	replicas []string

	mu    sync.Mutex
	state map[string]*replicaHealth // keys fixed at construction; values under mu

	probes     uint64
	demotions  uint64
	promotions uint64

	startOnce sync.Once
	cancel    context.CancelFunc // ends the loop; set by Start
	done      chan struct{}
}

// NewHealthChecker returns a checker over the replicas. Start launches
// the probe loop; Check and CheckNow probe synchronously.
func NewHealthChecker(cfg HealthCheckerConfig, replicas ...string) (*HealthChecker, error) {
	if len(replicas) == 0 {
		return nil, errors.New("reliability: health checker needs replicas")
	}
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("reliability: health interval %v", cfg.Interval)
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

// Start launches the background probe loop: one round (CheckNow), then a
// sleep of Interval on the context's clock, and again — so rounds are
// Interval apart end to start. Stop terminates it. Only the first Start
// launches a loop; a Start after Stop launches none.
//
// On the virtual clock (vtime.Virtual) a sleep returns at once, so a
// loop would spin through virtual time: there the schedule calls Check
// or CheckNow directly, and Start is not used.
func (hc *HealthChecker) Start(ctx context.Context) {
	hc.startOnce.Do(func() {
		ctx, hc.cancel = context.WithCancel(ctx)
		clk := vtime.ClockFrom(ctx)
		go func() {
			defer close(hc.done)
			for {
				hc.CheckNow(ctx)
				select {
				case <-ctx.Done():
					return
				default:
				}
				if clk.Sleep(ctx, hc.cfg.Interval) != nil {
					return
				}
			}
		}()
	})
}

// Stop cancels the probe loop's context and waits for the loop to exit.
// Safe to call more than once, and before Start, when it returns at once.
func (hc *HealthChecker) Stop() {
	hc.startOnce.Do(func() { close(hc.done) }) // no loop launched: nothing to wait for
	if hc.cancel != nil {
		hc.cancel()
	}
	select {
	case <-hc.done:
	//soclint:ignore clockdiscipline shutdown watchdog against a stuck probe loop; bounds real waiting, never simulated
	case <-time.After(5 * time.Second):
	}
}

// CheckNow probes every replica once, concurrently (Check on each).
func (hc *HealthChecker) CheckNow(ctx context.Context) {
	var wg sync.WaitGroup
	for _, r := range hc.replicas {
		wg.Add(1)
		go func(replica string) {
			defer wg.Done()
			//soclint:ignore errdiscard the outcome is recorded in the checker's state; CheckNow reports none
			_ = hc.Check(ctx, replica)
		}(r)
	}
	wg.Wait()
}

// Check probes one replica under an Interval deadline on the context's
// clock, applies the fall/rise thresholds and returns the probe's error.
// The RTT it reports to OnProbe is measured on the same clock. A probe
// that fails because ctx ended is nobody's fault: it is not counted,
// moves no threshold and reaches no OnProbe. For a replica the checker
// does not know, Check returns an error and counts nothing.
func (hc *HealthChecker) Check(ctx context.Context, replica string) error {
	if _, ok := hc.state[replica]; !ok {
		return errUnknownReplica(replica)
	}
	clk := vtime.ClockFrom(ctx)
	pctx, cancel := clk.WithTimeout(ctx, hc.cfg.Interval)
	defer cancel()
	start := clk.Now()
	err := hc.cfg.Probe(pctx, replica)
	if vtime.GaveUp(ctx, err) {
		return err
	}
	hc.observe(replica, err, clk.Now().Sub(start))
	return err
}

func errUnknownReplica(replica string) error {
	return fmt.Errorf("reliability: unknown replica %q", replica)
}

func (hc *HealthChecker) observe(replica string, err error, rtt time.Duration) {
	hc.mu.Lock()
	st := hc.state[replica]
	hc.probes++
	st.lastErr = err
	if err == nil {
		st.succseq++
		st.failseq = 0
		if !st.healthy && st.succseq >= hc.cfg.RiseThreshold {
			st.healthy = true
			hc.promotions++
		}
	} else {
		st.failseq++
		st.succseq = 0
		if st.healthy && st.failseq >= hc.cfg.FallThreshold {
			st.healthy = false
			hc.demotions++
		}
	}
	hc.mu.Unlock()

	if hc.cfg.OnProbe != nil {
		hc.cfg.OnProbe(replica, err == nil, rtt)
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
	return errUnknownReplica(replica)
}
