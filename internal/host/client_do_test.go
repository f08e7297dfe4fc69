package host

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"soc/internal/callplane"
	"soc/internal/core"
	"soc/internal/soap"
)

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// bothBindings runs one call over REST and one over SOAP.
func bothBindings(c *Client) map[string]func() error {
	return map[string]func() error{
		"rest": func() error {
			_, err := c.Call(context.Background(), "Calc", "Add", core.Values{"a": 1, "b": 2})
			return err
		},
		"soap": func() error {
			_, err := c.CallSOAP(context.Background(), "Calc", "Add", "http://soc.example/calc", core.Values{"a": 1, "b": 2})
			return err
		},
	}
}

// A service that never answers fails the call at the client's Timeout,
// with the deadline's own error inside the binding's.
func TestClientTimeoutIsADeadline(t *testing.T) {
	c := &Client{BaseURL: "http://silent.test", HTTPClient: &http.Client{
		Timeout: 20 * time.Millisecond,
		Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			_ = r.Body.Close()
			<-r.Context().Done()
			return nil, r.Context().Err()
		}),
	}}
	for name, call := range bothBindings(c) {
		start := time.Now()
		err := call()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want context.DeadlineExceeded inside", name, err)
		}
		if name == "rest" && !errors.Is(err, ErrRemote) {
			t.Errorf("rest: err = %v, want ErrRemote around it", err)
		}
		if took := time.Since(start); took > 5*time.Second {
			t.Errorf("%s: failed after %v with a 20 ms Timeout", name, took)
		}
	}
}

// stalledAnswer is a response body that stops after its first bytes until
// the request's deadline passes.
type stalledAnswer struct {
	head io.Reader
	ctx  context.Context
}

func (b *stalledAnswer) Read(p []byte) (int, error) {
	if n, _ := b.head.Read(p); n > 0 {
		return n, nil
	}
	<-b.ctx.Done()
	return 0, b.ctx.Err()
}

func (b *stalledAnswer) Close() error { return nil }

// The Timeout covers reading the answer, not just waiting for its status.
func TestClientTimeoutCoversAStalledAnswer(t *testing.T) {
	c := &Client{BaseURL: "http://stalling.test", HTTPClient: &http.Client{
		Timeout: 20 * time.Millisecond,
		Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			_ = r.Body.Close()
			return &http.Response{
				StatusCode: http.StatusOK, Header: http.Header{},
				Body: &stalledAnswer{head: strings.NewReader(`{"sum":`), ctx: r.Context()},
			}, nil
		}),
	}}
	for name, call := range bothBindings(c) {
		if err := call(); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want context.DeadlineExceeded inside", name, err)
		}
	}
}

// A redirect on an invoke is the service's answer, and a failed one: it is
// not followed — net/http would have replayed a 302 to a POST as a GET
// without arguments — and the transport is asked once.
func TestClientDoesNotFollowRedirects(t *testing.T) {
	var calls atomic.Int64
	c := &Client{BaseURL: "http://moved.test", HTTPClient: &http.Client{
		Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			calls.Add(1)
			_ = r.Body.Close()
			if r.Method != http.MethodPost {
				t.Errorf("transport asked to %s %s", r.Method, r.URL)
			}
			return &http.Response{
				StatusCode: http.StatusFound,
				Header:     http.Header{"Location": []string{"http://moved.test/services/Calc/invoke/Add"}},
				Body:       http.NoBody,
			}, nil
		}),
	}}
	_, err := c.Call(context.Background(), "Calc", "Add", core.Values{"a": 1, "b": 2})
	if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "302") {
		t.Errorf("rest: err = %v, want ErrRemote naming the 302", err)
	}
	_, err = c.CallSOAP(context.Background(), "Calc", "Add", "http://soc.example/calc", core.Values{"a": 1, "b": 2})
	if !errors.Is(err, soap.ErrProtocol) {
		t.Errorf("soap: err = %v, want ErrProtocol for an answer that is no envelope", err)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("transport called %d times for two calls", n)
	}
}

// An answer one byte over the client's buffer bound is reported as too
// large — it used to be cut at the bound and fail as a JSON syntax error —
// and one of exactly the bound still decodes.
func TestClientReportsAnOversizedAnswer(t *testing.T) {
	answer := func(size int) *Client {
		body := `{"v":"` + strings.Repeat("x", size-len(`{"v":""}`)) + `"}`
		return &Client{BaseURL: "http://big.test", HTTPClient: &http.Client{
			Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
				_ = r.Body.Close()
				return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(strings.NewReader(body))}, nil
			}),
		}}
	}
	_, err := answer(callplane.MaxResponse+1).Call(context.Background(), "Calc", "Add", nil)
	if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "exceeds 4194304 bytes") {
		t.Errorf("4 MiB + 1: err = %v, want ErrRemote … exceeds 4194304 bytes", err)
	}
	out, err := answer(callplane.MaxResponse).Call(context.Background(), "Calc", "Add", nil)
	if err != nil || len(out.Str("v")) != callplane.MaxResponse-len(`{"v":""}`) {
		t.Errorf("4 MiB: err = %v, %d bytes decoded", err, len(out.Str("v")))
	}
}

// Describe and List refuse an answer one byte over the same 4 MiB bound
// with an error naming it; both used to read whatever the peer sent.
func TestDescribeAndListBoundTheResponse(t *testing.T) {
	const bound = 4 << 20
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, `[{"name":"`+strings.Repeat("x", bound+1-len(`[{"name":""}]`))+`"}]`)
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	if _, err := c.Describe(context.Background(), "Calc"); !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "exceeds 4194304 bytes") {
		t.Errorf("Describe: err = %v, want ErrRemote … exceeds 4194304 bytes", err)
	}
	if _, err := c.List(context.Background()); !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "exceeds 4194304 bytes") {
		t.Errorf("List: err = %v, want ErrRemote … exceeds 4194304 bytes", err)
	}
}
