package cloud

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soc/internal/telemetry"
	"soc/internal/vtime"
)

// lateKey carries a request's lateCall in its context.
type lateKey struct{}

// lateCall is one request as the test sent it, and the signal that the
// door has answered it.
type lateCall struct {
	method, path, trace string
	body                []byte
	served              chan struct{}
	attempts            atomic.Int32
}

// lateReader is a replica transport that answers every request at once
// and reads and closes its body on a goroutine of its own only after the
// door has answered, as http.Transport may still be writing a body after
// an early response. With failFirst, each request's first attempt fails
// instead, its body still held, the way a connection dies after the
// request went out. Every late reader checks that the request it was
// lent is still its own: method, URL, trace header and body bytes.
type lateReader struct {
	t         *testing.T
	failFirst bool
	wg        sync.WaitGroup
}

func (l *lateReader) RoundTrip(req *http.Request) (*http.Response, error) {
	call := req.Context().Value(lateKey{}).(*lateCall)
	attempt := call.attempts.Add(1)
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		<-call.served
		method, path, trace := req.Method, req.URL.Path, req.Header.Get(telemetry.HeaderName)
		body, err := io.ReadAll(req.Body)
		_ = req.Body.Close()
		if method != call.method || path != call.path || trace != call.trace || err != nil || !bytes.Equal(body, call.body) {
			l.t.Errorf("attempt %d of %s %s read late: %s %s trace %q body %q… (%v); want trace %q body %q…",
				attempt, call.method, call.path, method, path, trace, head(body), err, call.trace, head(call.body))
		}
	}()
	if l.failFirst && attempt == 1 {
		return nil, errors.New("connection reset by test")
	}
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(strings.NewReader(call.path))}, nil
}

// TestFrontDoorLateReadersParallel: concurrent requests through one door
// whose replicas' transports read and close each attempt's body only
// after the door has answered. The door forwards a request's first
// attempt from its pooled per-request state, and while a transport still
// holds that request it must leave the state to the collector: reused,
// the late reader would find another request's method, URL, trace header
// or bytes there. In the failover case the first attempt's transport
// fails and keeps its body; the retry is forwarded from storage of its
// own, and each attempt's late reader finds its own request.
func TestFrontDoorLateReadersParallel(t *testing.T) {
	for _, failFirst := range []bool{false, true} {
		t.Run(fmt.Sprintf("first attempt fails=%v", failFirst), func(t *testing.T) {
			fd := NewFrontDoor(FrontDoorConfig{Seed: 5})
			rt := &lateReader{t: t, failFirst: failFirst}
			for i := 0; i < 3; i++ {
				fd.Add(NewReplica(fmt.Sprintf("r%d", i), rt, 0))
			}
			const goroutines, requests = 4, 200
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < requests; i++ {
						sc := telemetry.SpanContext{TraceID: telemetry.NewTraceID(), SpanID: telemetry.NewSpanID()}
						call := &lateCall{
							method: []string{http.MethodPost, http.MethodPut}[i%2],
							path:   fmt.Sprintf("/late/g%d/i%d", g, i),
							trace:  telemetry.FormatTraceParent(sc),
							body:   bytes.Repeat([]byte(fmt.Sprintf("g%d-i%d;", g, i)), 1+i%40),
							served: make(chan struct{}),
						}
						req := httptest.NewRequest(call.method, call.path, bytes.NewReader(call.body))
						req.Header.Set(telemetry.HeaderName, call.trace)
						req = req.WithContext(context.WithValue(req.Context(), lateKey{}, call))
						rec := httptest.NewRecorder()
						fd.ServeHTTP(rec, req)
						close(call.served)
						if rec.Code != http.StatusOK || rec.Body.String() != call.path {
							t.Errorf("%s %s: got %d %q", call.method, call.path, rec.Code, rec.Body)
							return
						}
						want := int32(1)
						if failFirst {
							want = 2
						}
						if got := call.attempts.Load(); got != want {
							t.Errorf("%s %s: %d attempts, want %d", call.method, call.path, got, want)
						}
					}
				}()
			}
			wg.Wait()
			rt.wg.Wait()
			st := fd.Stats()
			if st.Errored != 0 || st.Shed() != 0 || st.Completed != goroutines*requests {
				t.Fatalf("ledger: %+v", st)
			}
		})
	}
}

// TestFrontDoorHTTPReplicasParallel: concurrent requests through one door
// over two loopback replicas. Each exchange's deadline lives in the
// forwarded request, which http.Transport waits on, so its hooks may run
// after the door has answered: the door must not reuse that request.
func TestFrontDoorHTTPReplicasParallel(t *testing.T) {
	fd := NewFrontDoor(FrontDoorConfig{Seed: 7})
	for i := 0; i < 2; i++ {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(w, r.Body)
		}))
		defer srv.Close()
		rep, err := NewHTTPReplica(fmt.Sprintf("r%d", i), srv.URL, &http.Client{Timeout: time.Minute}, 0)
		if err != nil {
			t.Fatal(err)
		}
		fd.Add(rep)
	}
	const goroutines, requests = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				body := fmt.Sprintf("g%d-i%d", g, i)
				rec := httptest.NewRecorder()
				fd.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/echo", strings.NewReader(body)))
				if rec.Code != http.StatusOK || rec.Body.String() != body {
					t.Errorf("request %s: got %d %q", body, rec.Code, rec.Body)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// countingClock is a virtual clock that counts its Now calls.
type countingClock struct {
	*vtime.Virtual
	nows atomic.Int32
}

func (c *countingClock) Now() time.Time {
	c.nows.Add(1)
	return c.Virtual.Now()
}

// TestFrontDoorReadsTheClockThreeTimes: an untraced door reads the clock
// of one proxied request three times — the request's start and its
// attempt's two ends — and ends the frontdoor.proxy latency on the
// instant the attempt read after its exchange, so both it and the
// replica's sample are the replica's 5 ms.
func TestFrontDoorReadsTheClockThreeTimes(t *testing.T) {
	const took = 5 * time.Millisecond
	fd := NewFrontDoor(FrontDoorConfig{})
	fd.Add(NewLocalReplica("r", sleepHandler(took), 0))
	clk := &countingClock{Virtual: vtime.NewVirtual(epoch)}
	req := httptest.NewRequest(http.MethodPost, "/x", strings.NewReader("payload"))
	req = req.WithContext(vtime.WithClock(req.Context(), clk))
	rec := httptest.NewRecorder()
	fd.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if n := clk.nows.Load(); n != 3 {
		t.Errorf("the door read the clock %d times, want 3", n)
	}
	if op := fd.metrics.Report().Operations["frontdoor.proxy"]; op.Calls != 1 || op.MaxNanos != int64(took) {
		t.Errorf("frontdoor.proxy: %d calls, max %v; want 1 of %v", op.Calls, time.Duration(op.MaxNanos), took)
	}
	if got := fd.Replica("r").Status().EWMALatencyNanos; got != int64(took) {
		t.Errorf("replica EWMA %v, want %v", time.Duration(got), took)
	}
}
