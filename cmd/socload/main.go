// Command socload drives a service host with an open-loop,
// coordinated-omission-safe workload (see soc/internal/loadgen): a fixed
// arrival schedule at the offered rate, latency measured from each
// request's scheduled arrival, and telemetry.Histogram — the same
// log-bucketed histogram /metricz keeps — reporting nearest-rank
// p50/p99/p99.9 alongside achieved-vs-offered throughput.
//
//	socload -rate 500 -duration 5s                  # in-process host
//	socload -rate 500 -duration 5s -target http://localhost:8080
//	socload -virtual -rate 2000 -duration 2s -stall 100ms -assert-open-loop
//
// With no -target, socload builds an in-process host (Encryption +
// Echo services behind the idempotent-response cache) and dispatches
// through ServeHTTP directly — the simtest-style transport, with no
// sockets to perturb the measurement. -virtual switches the whole run
// onto a deterministic virtual clock: a two-minute schedule completes
// instantly and replays identically, which is what `make load-smoke`
// gates in CI. -stall injects a one-off server stall mid-schedule; with
// -assert-open-loop the command exits nonzero unless the full schedule
// was still offered and the stall surfaced in the latency tail — the
// open-loop property itself, checked end to end.
//
// The workload mix is three request shapes, weighted by -mix:
//
//	cached  GET REST invoke of an idempotent operation (response-cache hit)
//	rest    GET REST invoke of a non-idempotent operation (full dispatch)
//	soap    POST SOAP envelope dispatch
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"soc/internal/core"
	"soc/internal/host"
	"soc/internal/loadgen"
	"soc/internal/rest"
	"soc/internal/services"
	"soc/internal/soap"
	"soc/internal/vtime"
)

func main() {
	var (
		rate     = flag.Float64("rate", 200, "offered arrival rate in `req/s`")
		duration = flag.Duration("duration", 5*time.Second, "schedule horizon")
		workers  = flag.Int("workers", 0, "issuing goroutines (0 = 8*GOMAXPROCS; virtual runs are single-worker)")
		target   = flag.String("target", "", "base `URL` of a live host; empty drives an in-process host")
		mix      = flag.String("mix", "cached=50,rest=30,soap=20", "workload `weights`")
		stall    = flag.Duration("stall", 0, "inject one server stall of this length mid-schedule (in-process only)")
		virtual  = flag.Bool("virtual", false, "run on a deterministic virtual clock (in-process only)")
		assertOL = flag.Bool("assert-open-loop", false, "exit nonzero unless the full schedule was offered and any injected stall shows in the tail")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-request client `deadline` for -target runs; a saturation study sets this to the latency the caller would actually tolerate")
	)
	flag.Parse()
	if err := run(*rate, *duration, *workers, *target, *mix, *stall, *virtual, *assertOL, *timeout); err != nil {
		fmt.Fprintln(os.Stderr, "socload:", err)
		os.Exit(1)
	}
}

func run(rate float64, duration time.Duration, workers int, target, mix string, stall time.Duration, virtual, assertOL bool, timeout time.Duration) error {
	weights, err := parseMix(mix)
	if err != nil {
		return err
	}
	if virtual && target != "" {
		return fmt.Errorf("-virtual requires the in-process host (drop -target)")
	}
	if stall > 0 && target != "" {
		return fmt.Errorf("-stall requires the in-process host (drop -target)")
	}
	ctx := context.Background()
	if virtual {
		ctx = vtime.WithClock(ctx, vtime.NewVirtual(time.Unix(0, 0)))
	}

	var ops workloadOps
	if target == "" {
		scheduled := int(rate * duration.Seconds())
		ops, err = inprocessOps(stall, scheduled)
	} else {
		ops, err = liveOps(strings.TrimRight(target, "/"), timeout)
	}
	if err != nil {
		return err
	}

	op := mixedOp(weights, ops)
	res, err := loadgen.Run(ctx, loadgen.Config{
		Rate: rate, Duration: duration, Workers: workers,
	}, op)
	if err != nil {
		return err
	}
	res.Format(os.Stdout)
	if assertOL {
		if res.Issued != res.Scheduled {
			return fmt.Errorf("open-loop violation: issued %d of %d scheduled", res.Issued, res.Scheduled)
		}
		if stall > 0 && res.Latency.Max() < stall {
			return fmt.Errorf("open-loop violation: injected %v stall but max latency is %v (stall was absorbed by the schedule)", stall, res.Latency.Max())
		}
		fmt.Println("open-loop check: full schedule offered; stall visible in tail")
	}
	// Sheds are deliberate backpressure, reported above as their own
	// outcome class; only hard errors fail the run.
	if res.Errors > 0 {
		return fmt.Errorf("%d of %d requests failed", res.Errors, res.Issued)
	}
	return nil
}

// workloadOps are the three request shapes the mix draws from.
type workloadOps struct {
	cached loadgen.Op
	rest   loadgen.Op
	soapOp loadgen.Op
}

// mixedOp rotates deterministically through the weighted shapes: request
// i takes its shape from i mod totalWeight, so a virtual-clock run
// replays the exact same request sequence.
func mixedOp(w map[string]int, ops workloadOps) loadgen.Op {
	total := w["cached"] + w["rest"] + w["soap"]
	cachedUpto, restUpto := w["cached"], w["cached"]+w["rest"]
	var seq atomic.Int64
	return func(ctx context.Context) error {
		i := int(seq.Add(1)-1) % total
		switch {
		case i < cachedUpto:
			return ops.cached(ctx)
		case i < restUpto:
			return ops.rest(ctx)
		default:
			return ops.soapOp(ctx)
		}
	}
}

func parseMix(s string) (map[string]int, error) {
	w := map[string]int{}
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad -mix entry %q (want name=weight)", part)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad -mix weight %q", part)
		}
		switch name {
		case "cached", "rest", "soap":
			w[name] = n
		default:
			return nil, fmt.Errorf("unknown -mix shape %q (want cached, rest or soap)", name)
		}
	}
	if w["cached"]+w["rest"]+w["soap"] <= 0 {
		return nil, fmt.Errorf("-mix has zero total weight")
	}
	return w, nil
}

// inprocessOps builds the simtest-style transport: a host with the
// Encryption and Echo services behind the response cache, driven through
// ServeHTTP with no sockets. An optional stall middleware sleeps once, on
// the request context's clock, at the request closest to the middle of
// the schedule, to demonstrate that an open-loop harness keeps offering
// load through a server pause.
func inprocessOps(stall time.Duration, scheduled int) (workloadOps, error) {
	encSvc, err := services.NewEncryption()
	if err != nil {
		return workloadOps{}, err
	}
	sealed, err := encSvc.Invoke(context.Background(), "Encrypt", core.Values{
		"passphrase": "correct horse battery", "plaintext": "the quick brown fox",
	})
	if err != nil {
		return workloadOps{}, err
	}
	echo, err := echoService()
	if err != nil {
		return workloadOps{}, err
	}
	h := host.New()
	h.MustMount(encSvc)
	h.MustMount(echo)
	// The stall middleware goes in first — outermost — so it counts and
	// can pause every request, including response-cache hits; installed
	// inside the cache it would only ever see misses.
	if stall > 0 {
		stallAt := int64(scheduled / 2)
		if stallAt < 1 {
			stallAt = 1
		}
		var n atomic.Int64
		h.Use(func(next rest.HandlerFunc) rest.HandlerFunc {
			return func(w http.ResponseWriter, r *http.Request, p rest.Params) {
				if n.Add(1) == stallAt {
					//soclint:ignore errdiscard a canceled stall just shortens the injected pause
					_ = vtime.Sleep(r.Context(), stall)
				}
				next(w, r, p)
			}
		})
	}
	h.UseResponseCache(1024, time.Hour)

	cachedURL := "/services/Encryption/invoke/Decrypt?" + url.Values{
		"passphrase": {"correct horse battery"},
		"ciphertext": {sealed.Str("ciphertext")},
	}.Encode()
	restURL := "/services/Encryption/invoke/Encrypt?" + url.Values{
		"passphrase": {"correct horse battery"},
		"plaintext":  {"load generator payload"},
	}.Encode()
	envelope, err := soap.Encode(soap.Message{
		Operation:  "Echo",
		Namespace:  "http://soc.example/echo",
		Params:     map[string]string{"text": "socload"},
		ParamOrder: []string{"text"},
	})
	if err != nil {
		return workloadOps{}, err
	}

	get := func(target string) loadgen.Op {
		return func(ctx context.Context) error {
			req := httptest.NewRequest(http.MethodGet, target, nil).WithContext(ctx)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("GET %s: status %d", target, rec.Code)
			}
			return nil
		}
	}
	soapOp := func(ctx context.Context) error {
		req := httptest.NewRequest(http.MethodPost, "/services/Echo/soap", bytes.NewReader(envelope)).WithContext(ctx)
		req.Header.Set("Content-Type", "text/xml")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("POST /services/Echo/soap: status %d", rec.Code)
		}
		return nil
	}
	return workloadOps{cached: get(cachedURL), rest: get(restURL), soapOp: soapOp}, nil
}

// liveOps targets a running host (or cluster front door) over HTTP with
// the same three shapes. The host must serve the standard catalog
// (Encryption); shapes the host lacks fail and count as errors. A 503
// is classified as a shed — the server protecting itself — not an error.
func liveOps(base string, timeout time.Duration) (workloadOps, error) {
	client := &http.Client{Timeout: timeout}
	// One Encrypt round-trip up front produces the ciphertext the cached
	// shape replays.
	seal, err := client.Get(base + "/services/Encryption/invoke/Encrypt?" + url.Values{
		"passphrase": {"correct horse battery"},
		"plaintext":  {"the quick brown fox"},
	}.Encode())
	if err != nil {
		return workloadOps{}, fmt.Errorf("priming ciphertext: %w", err)
	}
	body, err := io.ReadAll(io.LimitReader(seal.Body, 1<<20))
	//soclint:ignore errdiscard the body is fully consumed; close failure has nothing left to affect
	_ = seal.Body.Close()
	if err != nil || seal.StatusCode != http.StatusOK {
		return workloadOps{}, fmt.Errorf("priming ciphertext: status %d err %v", seal.StatusCode, err)
	}
	ciphertext, err := extractJSONField(body, "ciphertext")
	if err != nil {
		return workloadOps{}, fmt.Errorf("priming ciphertext: %w", err)
	}
	cachedURL := base + "/services/Encryption/invoke/Decrypt?" + url.Values{
		"passphrase": {"correct horse battery"},
		"ciphertext": {ciphertext},
	}.Encode()
	restURL := base + "/services/Encryption/invoke/Encrypt?" + url.Values{
		"passphrase": {"correct horse battery"},
		"plaintext":  {"load generator payload"},
	}.Encode()
	envelope, err := soap.Encode(soap.Message{
		Operation: "Encrypt",
		Namespace: "http://soc.asu.example/wsrepository/encryption",
		Params: map[string]string{
			"passphrase": "correct horse battery",
			"plaintext":  "load generator payload",
		},
		ParamOrder: []string{"passphrase", "plaintext"},
	})
	if err != nil {
		return workloadOps{}, err
	}
	get := func(target string) loadgen.Op {
		return func(ctx context.Context) error {
			//soclint:ignore ctxpropagate the load generator measures the raw server path; call-plane tracing would tax every request with the overhead being measured
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
			if err != nil {
				return err
			}
			return doOK(client, req)
		}
	}
	soapOp := func(ctx context.Context) error {
		//soclint:ignore ctxpropagate the load generator measures the raw server path; call-plane tracing would tax every request with the overhead being measured
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/services/Encryption/soap", bytes.NewReader(envelope))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "text/xml")
		return doOK(client, req)
	}
	return workloadOps{cached: get(cachedURL), rest: get(restURL), soapOp: soapOp}, nil
}

func doOK(client *http.Client, req *http.Request) error {
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	//soclint:ignore errdiscard the response is drained for connection reuse; its content is irrelevant
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	//soclint:ignore errdiscard nothing actionable on close failure after a drained body
	_ = resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable {
		return fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, loadgen.ErrShed)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d", req.Method, req.URL.Path, resp.StatusCode)
	}
	return nil
}

// extractJSONField pulls a string field out of a flat JSON object
// without committing to the response document's full shape.
func extractJSONField(body []byte, field string) (string, error) {
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		return "", err
	}
	if v, ok := doc[field].(string); ok && v != "" {
		return v, nil
	}
	// Invoke responses may nest outputs one level down.
	for _, v := range doc {
		if m, ok := v.(map[string]any); ok {
			if s, ok := m[field].(string); ok && s != "" {
				return s, nil
			}
		}
	}
	return "", fmt.Errorf("no %q field in response", field)
}

// echoService is the minimal SOAP-dispatch target.
func echoService() (*core.Service, error) {
	echo, err := core.NewService("Echo", "http://soc.example/echo", "echo")
	if err != nil {
		return nil, err
	}
	err = echo.AddOperation(core.Operation{
		Name:   "Echo",
		Input:  []core.Param{{Name: "text", Type: core.String}},
		Output: []core.Param{{Name: "echo", Type: core.String}},
		Handler: func(_ context.Context, in core.Values) (core.Values, error) {
			return core.Values{"echo": in.Str("text")}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	return echo, nil
}
