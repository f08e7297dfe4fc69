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
// Both targets get the same requests over the same http.Client. With no
// -target, socload builds an in-process host (the Encryption service
// behind the idempotent-response cache) and the client reaches it through
// cloud.HandlerTransport, with no sockets to perturb the measurement; a
// -target is any host that serves Encryption, reached over the network.
// -virtual switches the whole run onto a deterministic virtual clock: a
// two-minute schedule completes instantly and replays identically, which
// is what `make load-smoke` gates in CI. -stall injects a one-off server
// stall mid-schedule; with -assert-open-loop the command exits nonzero
// unless the full schedule was still offered and the stall surfaced in the
// latency tail — the open-loop property itself, checked end to end.
//
// The workload mix is three request shapes, weighted by -mix:
//
//	cached  GET REST invoke of Encryption.Decrypt (response-cache hit)
//	rest    GET REST invoke of Encryption.Encrypt (full dispatch)
//	soap    POST SOAP envelope of Encryption.Encrypt
//
// A 503 is counted as a shed (the server protecting itself), any other
// status but 200 as an error.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"soc/internal/callplane"
	"soc/internal/cloud"
	"soc/internal/core"
	"soc/internal/host"
	"soc/internal/loadgen"
	"soc/internal/rest"
	"soc/internal/services"
	"soc/internal/soap"
	"soc/internal/vtime"
)

// inprocessBase is the base URL of the in-process host; its client's
// transport serves every request itself, so the name resolves nowhere.
const inprocessBase = "http://socload.in-process"

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
		timeout  = flag.Duration("timeout", 30*time.Second, "per-request client `deadline`; a saturation study sets this to the latency the caller would actually tolerate")
	)
	flag.Parse()
	res, err := run(*rate, *duration, *workers, *target, *mix, *stall, *virtual, *timeout)
	if err == nil {
		res.Format(os.Stdout)
		err = verdict(res, *stall, *assertOL)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "socload:", err)
		os.Exit(1)
	}
}

// run drives the weighted mix against target, or against an in-process
// host when target is empty, and returns what the schedule measured.
func run(rate float64, duration time.Duration, workers int, target, mix string, stall time.Duration, virtual bool, timeout time.Duration) (*loadgen.Result, error) {
	weights, err := parseMix(mix)
	if err != nil {
		return nil, err
	}
	if virtual && target != "" {
		return nil, fmt.Errorf("-virtual requires the in-process host (drop -target)")
	}
	if stall > 0 && target != "" {
		return nil, fmt.Errorf("-stall requires the in-process host (drop -target)")
	}
	ctx := context.Background()
	if virtual {
		ctx = vtime.WithClock(ctx, vtime.NewVirtual(time.Unix(0, 0)))
	}

	client, base := &http.Client{Timeout: timeout}, strings.TrimRight(target, "/")
	var h *host.Host
	if target == "" {
		enc, err := services.NewEncryption()
		if err != nil {
			return nil, err
		}
		h = host.New()
		h.MustMount(enc)
		h.UseResponseCache(1024, time.Hour)
		client.Transport, base = cloud.HandlerTransport(h), inprocessBase
	}
	ops, err := shapes(ctx, client, base)
	if err != nil {
		return nil, err
	}
	if stall > 0 {
		// Armed after shapes has primed its ciphertext, so the stall
		// lands on a request of the schedule.
		h.Use(stallOnce(stall, int64(rate*duration.Seconds())/2))
	}
	return loadgen.Run(ctx, loadgen.Config{
		Rate: rate, Duration: duration, Workers: workers,
	}, mixedOp(weights, ops))
}

// verdict fails a run with hard errors and, under -assert-open-loop, one
// that did not offer its full schedule or hid an injected stall. Sheds are
// deliberate backpressure, reported as their own outcome class; they fail
// nothing.
func verdict(res *loadgen.Result, stall time.Duration, assertOL bool) error {
	if assertOL {
		if res.Issued != res.Scheduled {
			return fmt.Errorf("open-loop violation: issued %d of %d scheduled", res.Issued, res.Scheduled)
		}
		if stall > 0 && res.Latency.Max() < stall {
			return fmt.Errorf("open-loop violation: injected %v stall but max latency is %v (stall was absorbed by the schedule)", stall, res.Latency.Max())
		}
		fmt.Println("open-loop check: full schedule offered; stall visible in tail")
	}
	if res.Errors > 0 {
		return fmt.Errorf("%d of %d requests failed", res.Errors, res.Issued)
	}
	return nil
}

// stallOnce is host middleware that sleeps once, for d on the request
// context's clock, at the at-th request it serves (the first when at < 1),
// to show that an open-loop harness keeps offering load through a server
// pause. As router middleware it wraps every request, response-cache hits
// included: the cache sits inside the host's dispatch.
func stallOnce(d time.Duration, at int64) rest.Middleware {
	at = max(at, 1)
	var n atomic.Int64
	return func(next rest.HandlerFunc) rest.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request, p rest.Params) {
			if n.Add(1) == at {
				//soclint:ignore errdiscard a canceled stall just shortens the injected pause
				_ = vtime.Sleep(r.Context(), d)
			}
			next(w, r, p)
		}
	}
}

// workloadOps are the three request shapes the mix draws from.
type workloadOps struct {
	cached loadgen.Op
	rest   loadgen.Op
	soapOp loadgen.Op
}

// shapes builds the three request shapes against the Encryption service
// of the host at base, each sent over client. One Encrypt call up front
// seals the ciphertext the cached shape replays.
func shapes(ctx context.Context, client *http.Client, base string) (workloadOps, error) {
	const passphrase = "correct horse battery"
	sealed, err := (&host.Client{BaseURL: base, HTTPClient: client}).Call(ctx, "Encryption", "Encrypt", core.Values{
		"passphrase": passphrase, "plaintext": "the quick brown fox",
	})
	if err != nil {
		return workloadOps{}, fmt.Errorf("priming ciphertext: %w", err)
	}
	invoke := base + "/services/Encryption/invoke/"
	cachedURL := invoke + "Decrypt?" + url.Values{
		"passphrase": {passphrase},
		"ciphertext": {sealed.Str("ciphertext")},
	}.Encode()
	restURL := invoke + "Encrypt?" + url.Values{
		"passphrase": {passphrase},
		"plaintext":  {"load generator payload"},
	}.Encode()
	envelope, err := soap.Encode(soap.Message{
		Operation:  "Encrypt",
		Namespace:  services.NamespacePrefix + "encryption",
		Params:     map[string]string{"passphrase": passphrase, "plaintext": "load generator payload"},
		ParamOrder: []string{"passphrase", "plaintext"},
	})
	if err != nil {
		return workloadOps{}, err
	}
	send := func(method, target string, body []byte) loadgen.Op {
		return func(ctx context.Context) error {
			req, err := callplane.NewRequest(ctx, method, target, bytes.NewReader(body))
			if err != nil {
				return err
			}
			if body != nil {
				req.Header.Set("Content-Type", "text/xml")
			}
			return doOK(client, req)
		}
	}
	return workloadOps{
		cached: send(http.MethodGet, cachedURL, nil),
		rest:   send(http.MethodGet, restURL, nil),
		soapOp: send(http.MethodPost, base+"/services/Encryption/soap", envelope),
	}, nil
}

// doOK sends req and reads its answer: 200 is success, 503 a shed
// (loadgen.ErrShed), any other status an error.
func doOK(client *http.Client, req *http.Request) error {
	resp, err := callplane.Do(client, req)
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
