package faultinject

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// okTransport is a stub backend answering 200 {"ok":true}.
type okTransport struct{}

func (okTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": []string{"application/json"}},
		Body:       io.NopCloser(strings.NewReader(`{"ok":true}`)),
		Request:    req,
	}, nil
}

func classify(resp *http.Response, err error) string {
	switch {
	case err != nil:
		return "err"
	case resp.StatusCode != http.StatusOK:
		return "status"
	default:
		body, readErr := io.ReadAll(resp.Body)
		resp.Body.Close()
		var v map[string]any
		if readErr != nil || json.Unmarshal(body, &v) != nil {
			return "corrupt"
		}
		return "ok"
	}
}

func outcomes(t *testing.T, plan Plan, n int) []string {
	t.Helper()
	inj, err := New(plan)
	if err != nil {
		t.Fatal(err)
	}
	rt := inj.Transport(okTransport{})
	out := make([]string, n)
	for i := range out {
		req, _ := http.NewRequest(http.MethodPost, "http://x/services/Svc/invoke/Op", nil)
		out[i] = classify(rt.RoundTrip(req))
	}
	return out
}

func TestDeterministicReplay(t *testing.T) {
	plan := Plan{
		Seed: 42,
		Rules: map[string]Rule{
			"Svc.Op": {ErrorRate: 0.3, DropRate: 0.1, CorruptRate: 0.1,
				LatencyRate: 0.2, Latency: time.Microsecond},
		},
	}
	a := outcomes(t, plan, 200)
	b := outcomes(t, plan, 200)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different fault sequences")
	}
	seen := map[string]int{}
	for _, o := range a {
		seen[o]++
	}
	for _, want := range []string{"ok", "err", "status", "corrupt"} {
		if seen[want] == 0 {
			t.Errorf("outcome %q never occurred in %v", want, seen)
		}
	}

	plan.Seed = 43
	c := outcomes(t, plan, 200)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

func TestConcurrentDecisionsMatchSequential(t *testing.T) {
	plan := Plan{Seed: 7, Rules: map[string]Rule{
		"Svc.Op": {ErrorRate: 0.5},
	}}
	seq, err := New(plan)
	if err != nil {
		t.Fatal(err)
	}
	con, err := New(plan)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	seqRT, conRT := seq.Transport(okTransport{}), con.Transport(okTransport{})
	for i := 0; i < n; i++ {
		req, _ := http.NewRequest(http.MethodGet, "http://x/services/Svc/invoke/Op", nil)
		resp, err := seqRT.RoundTrip(req)
		if err == nil {
			resp.Body.Close()
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequest(http.MethodGet, "http://x/services/Svc/invoke/Op", nil)
			resp, err := conRT.RoundTrip(req)
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	// The per-call decisions are index-keyed, so the aggregate counters
	// must match exactly no matter how the goroutines interleaved.
	if s, c := seq.String(), con.String(); s != c {
		t.Fatalf("concurrent counters diverged:\nseq: %s\ncon: %s", s, c)
	}
}

func TestBurstWindowForcesFaults(t *testing.T) {
	plan := Plan{Seed: 1, Rules: map[string]Rule{
		"Svc.Op": {ErrorRate: 0.01, Burst: Burst{Every: 10, Length: 3}},
	}}
	got := outcomes(t, plan, 20)
	for _, i := range []int{0, 1, 2, 10, 11, 12} {
		if got[i] != "status" {
			t.Errorf("call %d in burst window: got %q, want injected error", i, got[i])
		}
	}
}

func TestHangRespectsContext(t *testing.T) {
	inj, err := New(Plan{Seed: 3, Rules: map[string]Rule{
		"Svc.Op": {HangRate: 1, MaxHang: time.Minute},
	}})
	if err != nil {
		t.Fatal(err)
	}
	rt := inj.Transport(okTransport{})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://x/services/Svc/invoke/Op", nil)
	start := time.Now()
	_, rtErr := rt.RoundTrip(req)
	if rtErr == nil {
		t.Fatal("hung request returned success")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hang ignored context cancellation (took %v)", elapsed)
	}
}

// send round-trips a POST with a JSON body to path through rt.
func send(t *testing.T, rt http.RoundTripper, path string) (*http.Response, error) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, "http://x"+path, strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	return rt.RoundTrip(req)
}

// TestTransportInjectsByOperation pins the keys the transport derives
// from the Host's URLs — "Service.Operation" for a REST invocation and
// "Service.soap" for the SOAP endpoint — and the injected 503's problem
// detail.
func TestTransportInjectsByOperation(t *testing.T) {
	inj, err := New(Plan{Seed: 5, Rules: map[string]Rule{
		"Svc.Bad":  {ErrorRate: 1},
		"Svc.soap": {ErrorRate: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	rt := inj.Transport(okTransport{})
	for _, c := range []struct {
		path   string
		status int
	}{
		{"/services/Svc/invoke/Bad", http.StatusServiceUnavailable},
		{"/services/Svc/invoke/Good", http.StatusOK},
		{"/services/Svc/soap", http.StatusServiceUnavailable},
		{"/services/Other/soap", http.StatusOK},
	} {
		resp, err := send(t, rt, c.path)
		if err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d", c.path, resp.StatusCode, c.status)
		}
		if c.status == http.StatusServiceUnavailable && !strings.Contains(string(body), `"detail":"faultinject: injected error"`) {
			t.Errorf("%s: injected error body = %s", c.path, body)
		}
	}
	counts := inj.Counts()
	for _, key := range []string{"Svc.Bad|error", "Svc.Good|pass", "Svc.soap|error", "Other.soap|pass"} {
		if counts[key] != 1 {
			t.Errorf("counters = %v, want %s=1", counts, key)
		}
	}
	if injected(&inj.ledger) != 2 {
		t.Errorf("injected = %d, want 2", injected(&inj.ledger))
	}
}

// sizedTransport answers 200 with a JSON payload whose length it states
// in both ContentLength and the Content-Length header.
type sizedTransport struct{}

func (sizedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body.Close()
	}
	payload := `{"answer":42,"padding":"` + strings.Repeat("x", 64) + `"}`
	return &http.Response{
		StatusCode: http.StatusOK,
		Header: http.Header{
			"Content-Type":   []string{"application/json"},
			"Content-Length": []string{strconv.Itoa(len(payload))},
		},
		ContentLength: int64(len(payload)),
		Body:          io.NopCloser(strings.NewReader(payload)),
		Request:       req,
	}, nil
}

func TestTransportCorruptsPayload(t *testing.T) {
	inj, err := New(Plan{Seed: 5, Default: Rule{CorruptRate: 1}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := send(t, inj.Transport(sizedTransport{}), "/services/Svc/invoke/Op")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var v map[string]any
	if json.Unmarshal(body, &v) == nil {
		t.Fatalf("corrupted payload still decodes: %q", body)
	}
	if resp.ContentLength != int64(len(body)) {
		t.Errorf("ContentLength = %d, body is %d bytes", resp.ContentLength, len(body))
	}
	if h := resp.Header.Get("Content-Length"); h != "" {
		t.Errorf("Content-Length header %q survives corruption", h)
	}
}

// countingBody is a request body that counts its closes.
type countingBody struct {
	io.Reader
	closes int
}

func (b *countingBody) Close() error {
	b.closes++
	return nil
}

// TestTransportClosesRequestBody holds the transport to the
// http.RoundTripper contract: whatever the outcome, the request body is
// closed exactly once — by the base transport when the request is sent,
// by the injector when it is not.
func TestTransportClosesRequestBody(t *testing.T) {
	for _, c := range []struct {
		name string
		rule Rule
	}{
		{"pass", Rule{}},
		{"error", Rule{ErrorRate: 1}},
		{"drop", Rule{DropRate: 1}},
		{"hang", Rule{HangRate: 1, MaxHang: time.Millisecond}},
		{"latency", Rule{LatencyRate: 1, Latency: time.Microsecond}},
		{"corrupt", Rule{CorruptRate: 1}},
	} {
		inj, err := New(Plan{Seed: 5, Default: c.rule})
		if err != nil {
			t.Fatal(err)
		}
		body := &countingBody{Reader: strings.NewReader("{}")}
		req, err := http.NewRequest(http.MethodPost, "http://x/services/Svc/invoke/Op", body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := inj.Transport(okTransport{}).RoundTrip(req)
		if err == nil {
			resp.Body.Close()
		}
		if body.closes != 1 {
			t.Errorf("%s: request body closed %d times, want 1", c.name, body.closes)
		}
	}
}

func TestRuleValidation(t *testing.T) {
	bad := []Plan{
		{Default: Rule{ErrorRate: 1.5}},
		{Default: Rule{DropRate: -0.1}},
		{Default: Rule{Latency: -time.Second}},
		{Rules: map[string]Rule{"x": {Burst: Burst{Every: -1}}}},
	}
	for i, p := range bad {
		if _, err := New(p); err == nil {
			t.Errorf("plan %d accepted invalid rule", i)
		}
	}
	// An operation's rule error keeps the validation error as its cause.
	rule := Rule{ErrorRate: 2}
	_, err := New(Plan{Rules: map[string]Rule{"Svc.Op": rule}})
	cause := errors.Unwrap(err)
	if cause == nil || cause.Error() != rule.validate().Error() {
		t.Errorf("New(%+v) = %v, want it to wrap %v", rule, err, rule.validate())
	}
}

func TestPathOpParsing(t *testing.T) {
	cases := map[string]string{
		"/services/Calc/invoke/Add": "Calc.Add",
		"/services/Calc/soap":       "Calc.soap",
		"/healthz":                  "/healthz",
		"/services":                 "/services",
	}
	for path, want := range cases {
		if got := pathOp(path); got != want {
			t.Errorf("pathOp(%q) = %q, want %q", path, got, want)
		}
	}
}

// injected totals every non-pass fault the ledger has injected so far.
func injected(l *ledger) uint64 {
	var total uint64
	for k, v := range l.Counts() {
		if !strings.HasSuffix(k, "|"+string(Pass)) {
			total += v
		}
	}
	return total
}
