package callplane

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func okResponse(body string) *http.Response {
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(strings.NewReader(body))}
}

// Which context the transport sees: the caller's own unless Timeout is
// the earlier deadline, and then a child of it carrying that deadline.
func TestDoDeadlineContext(t *testing.T) {
	type ctxKey struct{}
	base := context.WithValue(context.Background(), ctxKey{}, "caller")
	soon, cancelSoon := context.WithTimeout(base, time.Minute)
	defer cancelSoon()
	late, cancelLate := context.WithTimeout(base, time.Hour)
	defer cancelLate()

	for _, tc := range []struct {
		name    string
		ctx     context.Context
		timeout time.Duration
		derived bool // the transport sees a new context under Timeout's deadline
	}{
		{"no Timeout, no deadline", base, 0, false},
		{"no Timeout, caller deadline", soon, 0, false},
		{"Timeout alone", base, 10 * time.Minute, true},
		{"caller deadline earlier than Timeout", soon, 10 * time.Minute, false},
		{"Timeout earlier than caller deadline", late, 10 * time.Minute, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var seen context.Context
			hc := &http.Client{Timeout: tc.timeout, Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
				seen = r.Context()
				return okResponse("answer"), nil
			})}
			req, err := NewRequest(tc.ctx, http.MethodGet, "http://svc.test/x", nil)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			resp, err := Do(hc, req)
			if err != nil {
				t.Fatal(err)
			}
			if seen.Value(ctxKey{}) != "caller" {
				t.Fatal("the transport's context does not descend from the caller's")
			}
			if !tc.derived {
				// The same context value: nothing was derived, so no second
				// timer exists beside the caller's.
				if seen != tc.ctx {
					t.Fatalf("Do derived a context it had no use for: %v", seen)
				}
				if _, guarded := resp.Body.(*deadlineBody); guarded {
					t.Fatal("the response body is guarded though Do set no deadline")
				}
				_ = resp.Body.Close()
				return
			}
			dl, ok := seen.Deadline()
			if lo, hi := start.Add(tc.timeout), time.Now().Add(tc.timeout); !ok || dl.Before(lo) || dl.After(hi) {
				t.Fatalf("deadline = %v (set %v), want within [%v, %v]", dl, ok, lo, hi)
			}
			// The deadline lives until the caller is done with the body.
			if seen.Err() != nil {
				t.Fatalf("deadline released before the body was read: %v", seen.Err())
			}
			if got, err := io.ReadAll(resp.Body); err != nil || string(got) != "answer" {
				t.Fatalf("body = %q, %v", got, err)
			}
			if !errors.Is(seen.Err(), context.Canceled) {
				t.Fatalf("deadline still armed after the body's EOF: %v", seen.Err())
			}
			if err := resp.Body.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.ctx.Err() != nil {
				t.Fatal("releasing the deadline cancelled the caller's context")
			}
		})
	}
}

// Close without reading to the end releases the deadline too.
func TestDoDeadlineReleasedAtClose(t *testing.T) {
	var seen context.Context
	hc := &http.Client{Timeout: time.Minute, Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		seen = r.Context()
		return okResponse("unread"), nil
	})}
	req, _ := NewRequest(context.Background(), http.MethodGet, "http://svc.test/x", nil)
	resp, err := Do(hc, req)
	if err != nil {
		t.Fatal(err)
	}
	if seen.Err() != nil {
		t.Fatal("deadline released before Close")
	}
	_ = resp.Body.Close()
	if !errors.Is(seen.Err(), context.Canceled) {
		t.Fatalf("deadline still armed after Close: %v", seen.Err())
	}
}

// A transport that never answers is cut off by Timeout, and the error is
// the context's own: no *url.Error around it.
func TestDoDeadlineCutsOffABlockedTransport(t *testing.T) {
	hc := &http.Client{Timeout: 20 * time.Millisecond, Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		<-r.Context().Done()
		return nil, r.Context().Err()
	})}
	req, _ := NewRequest(context.Background(), http.MethodGet, "http://svc.test/x", nil)
	start := time.Now()
	resp, err := Do(hc, req)
	if resp != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Do = %v, %v; want context.DeadlineExceeded", resp, err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("cut off after %v with a 20 ms Timeout", took)
	}
}

// stallingBody yields head, then blocks until the request's deadline.
type stallingBody struct {
	head io.Reader
	ctx  context.Context
}

func (b *stallingBody) Read(p []byte) (int, error) {
	if n, _ := b.head.Read(p); n > 0 {
		return n, nil
	}
	<-b.ctx.Done()
	return 0, b.ctx.Err()
}

func (b *stallingBody) Close() error { return nil }

// The deadline does not end with the headers: a body that stalls halfway
// is cut off by the same Timeout.
func TestDoDeadlineCoversAStalledBody(t *testing.T) {
	hc := &http.Client{Timeout: 20 * time.Millisecond, Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		resp := okResponse("")
		resp.Body = &stallingBody{head: strings.NewReader("half an ans"), ctx: r.Context()}
		return resp, nil
	})}
	req, _ := NewRequest(context.Background(), http.MethodGet, "http://svc.test/x", nil)
	resp, err := Do(hc, req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if string(got) != "half an ans" || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ReadAll = %q, %v; want the head and context.DeadlineExceeded", got, err)
	}
}

// countingBody is a request body that counts its Closes.
type countingBody struct {
	io.Reader
	closes int
}

func (b *countingBody) Close() error { b.closes++; return nil }

// A redirect is an answer like any other: handed to the caller, not
// followed, whatever the client's CheckRedirect or Jar would have said.
func TestDoReturnsARedirect(t *testing.T) {
	calls := 0
	hc := &http.Client{
		Timeout: time.Minute,
		CheckRedirect: func(*http.Request, []*http.Request) error {
			t.Error("CheckRedirect consulted")
			return nil
		},
		Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			calls++
			_, _ = io.Copy(io.Discard, r.Body)
			_ = r.Body.Close() // as every RoundTripper must
			resp := okResponse("")
			resp.StatusCode = http.StatusFound
			resp.Header.Set("Location", "http://elsewhere.test/y")
			return resp, nil
		}),
	}
	body := &countingBody{Reader: strings.NewReader(`{"n":1}`)}
	req, err := NewRequest(context.Background(), http.MethodPost, "http://svc.test/x", body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := Do(hc, req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusFound || resp.Header.Get("Location") != "http://elsewhere.test/y" {
		t.Fatalf("status %d, Location %q; want the 302 itself", resp.StatusCode, resp.Header.Get("Location"))
	}
	if calls != 1 || body.closes != 1 {
		t.Fatalf("transport called %d times, request body closed %d times; want 1 and 1", calls, body.closes)
	}
}

// A failed exchange leaves no pooled body lent out: whether or not the
// transport closed it, its owner hears of it exactly once.
func TestDoFailedExchangeReleasesTheBodyOnce(t *testing.T) {
	boom := errors.New("connection refused")
	in, _ := http.NewRequest(http.MethodPost, "http://door.test/x", nil)
	for _, tc := range []struct {
		name            string
		transportCloses bool
		timeout         time.Duration
	}{
		{"transport closed it", true, 0},
		{"transport forgot it", false, 0},
		{"transport forgot it, under a deadline", false, time.Minute},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var seen context.Context
			hc := &http.Client{Timeout: tc.timeout, Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
				seen = r.Context()
				if tc.transportCloses {
					_ = r.Body.Close()
				}
				return nil, boom
			})}
			owner := &countingOwner{}
			resp, err := Do(hc, Forward(context.Background(), in, []byte("payload"), owner))
			if resp != nil || !errors.Is(err, boom) {
				t.Fatalf("Do = %v, %v; want the transport's error as it is", resp, err)
			}
			if owner.n != 1 {
				t.Fatalf("body released %d times, want 1", owner.n)
			}
			if tc.timeout > 0 && !errors.Is(seen.Err(), context.Canceled) {
				t.Fatalf("deadline still armed after a failed exchange: %v", seen.Err())
			}
		})
	}
}

// A transport breaking its contract is an error, not a nil dereference in
// the binding.
func TestDoRejectsANilResponse(t *testing.T) {
	hc := &http.Client{Transport: roundTripFunc(func(*http.Request) (*http.Response, error) { return nil, nil })}
	req, _ := NewRequest(context.Background(), http.MethodGet, "http://svc.test/x", nil)
	if resp, err := Do(hc, req); resp != nil || err == nil {
		t.Fatalf("Do = %v, %v; want an error", resp, err)
	}
}
