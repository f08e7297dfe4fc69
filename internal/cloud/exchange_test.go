package cloud

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestHandlerTransportStatusLine pins Response.Status to the "200 OK"
// form the field is documented to hold (it used to carry the bare reason
// phrase), whatever way the handler set — or did not set — the code.
func TestHandlerTransportStatusLine(t *testing.T) {
	cases := []struct {
		name    string
		handler http.HandlerFunc
		code    int
		status  string
		body    string
	}{
		{"200", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(200); fmt.Fprint(w, "ok") }, 200, "200 OK", "ok"},
		{"404", func(w http.ResponseWriter, _ *http.Request) { http.NotFound(w, nil) }, 404, "404 Not Found", "404 page not found\n"},
		{"503", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(503) }, 503, "503 Service Unavailable", ""},
		{"never calls WriteHeader", func(w http.ResponseWriter, _ *http.Request) { fmt.Fprint(w, "implicit") }, 200, "200 OK", "implicit"},
		{"writes nothing at all", func(http.ResponseWriter, *http.Request) {}, 200, "200 OK", ""},
		{"writes the header twice", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(201); w.WriteHeader(500) }, 201, "201 Created", ""},
		{"header after body", func(w http.ResponseWriter, _ *http.Request) { fmt.Fprint(w, "x"); w.WriteHeader(500) }, 200, "200 OK", "x"},
		{"a code net/http has no name for", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(299) }, 299, "299 ", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodGet, "/x", nil)
			resp, err := HandlerTransport(tc.handler).RoundTrip(req)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.code || resp.Status != tc.status || string(body) != tc.body {
				t.Errorf("got %d %q %q, want %d %q %q", resp.StatusCode, resp.Status, body, tc.code, tc.status, tc.body)
			}
			if resp.ContentLength != int64(len(tc.body)) || resp.Request != req || resp.ProtoMajor != 1 {
				t.Errorf("ContentLength %d, Request %p, Proto %q", resp.ContentLength, resp.Request, resp.Proto)
			}
			if err := resp.Body.Close(); err != nil {
				t.Fatal(err)
			}
			if err := resp.Body.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
			if n, err := resp.Body.Read(make([]byte, 1)); n != 0 || err != io.EOF {
				t.Errorf("Read after Close: %d, %v", n, err)
			}
		})
	}
}

// closeCounter is a request body that counts its Closes.
type closeCounter struct {
	io.Reader
	closed int
}

func (c *closeCounter) Close() error { c.closed++; return nil }

func TestHandlerTransportClosesTheRequestBody(t *testing.T) {
	body := &closeCounter{Reader: strings.NewReader("payload")}
	req := httptest.NewRequest(http.MethodPost, "/x", nil)
	req.Body = body
	var seen string
	resp, err := HandlerTransport(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		seen = string(b)
		w.Header().Set("X-Seen", seen)
	})).RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if seen != "payload" || resp.Header.Get("X-Seen") != "payload" {
		t.Fatalf("handler saw %q, response header %q", seen, resp.Header.Get("X-Seen"))
	}
	if body.closed != 1 {
		t.Fatalf("request body closed %d times; a RoundTripper closes it once", body.closed)
	}
}

// failingTransport fails every exchange on path after taking the whole
// body, the way a connection dies after the request went out. It records
// what it read, and closes the body or keeps it open as told.
type failingTransport struct {
	path      string
	closeBody bool
	mu        sync.Mutex
	got       [][]byte
	held      []io.ReadCloser
	next      http.RoundTripper
}

func (f *failingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != f.path {
		return f.next.RoundTrip(req)
	}
	b, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.got = append(f.got, b)
	f.mu.Unlock()
	if f.closeBody {
		_ = req.Body.Close()
	} else {
		f.mu.Lock()
		f.held = append(f.held, req.Body)
		f.mu.Unlock()
	}
	return nil, errors.New("connection reset by test")
}

// TestFrontDoorReplayKeepsBodyUntilProxyReturns: the first replica's
// transport fails, so the buffered body is replayed onto the sibling. It
// must arrive byte-identical — even though, while the sibling is still
// handling it, other requests run through the same door and borrow from
// the same pools: the buffer is the proxy call's until proxy returns,
// whether or not the failed transport closed its copy of the body.
func TestFrontDoorReplayKeepsBodyUntilProxyReturns(t *testing.T) {
	for _, closeBody := range []bool{true, false} {
		t.Run(fmt.Sprintf("failed transport closes body=%v", closeBody), func(t *testing.T) {
			fd := NewFrontDoor(FrontDoorConfig{})
			payload := bytes.Repeat([]byte("outer-payload;"), 40)
			var atSibling []byte
			sibling := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/outer" {
					// Churn the pools before looking at the body.
					for i := 0; i < 32; i++ {
						inner := httptest.NewRequest(http.MethodPost, "/inner", bytes.NewReader(bytes.Repeat([]byte{'A' + byte(i%26)}, 700)))
						rec := httptest.NewRecorder()
						fd.ServeHTTP(rec, inner)
						if rec.Code != http.StatusOK {
							t.Errorf("inner request %d: %d %s", i, rec.Code, rec.Body)
						}
					}
					atSibling, _ = io.ReadAll(r.Body)
				} else {
					_, _ = io.Copy(io.Discard, r.Body)
				}
				fmt.Fprint(w, "served")
			})
			flaky := &failingTransport{path: "/outer", closeBody: closeBody, next: HandlerTransport(sibling)}
			// One replica fails /outer; whichever is picked first, the retry
			// excludes it, so /outer ends at the sibling either way.
			fd.Add(NewReplica("flaky", flaky, 0))
			fd.Add(NewLocalReplica("sibling", sibling, 0))

			for round := 0; round < 20; round++ {
				atSibling = nil
				rec := httptest.NewRecorder()
				fd.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/outer", bytes.NewReader(payload)))
				if rec.Code != http.StatusOK || rec.Body.String() != "served" {
					t.Fatalf("round %d: %d %q", round, rec.Code, rec.Body)
				}
				if !bytes.Equal(atSibling, payload) {
					t.Fatalf("round %d: sibling read %d bytes %q…, want the %d-byte payload", round, len(atSibling), head(atSibling), len(payload))
				}
			}
			if len(flaky.got) == 0 {
				t.Fatal("the failing replica was never picked: the replay path did not run")
			}
			for i, b := range flaky.got {
				if !bytes.Equal(b, payload) {
					t.Fatalf("failed attempt %d read %q…, want the payload", i, head(b))
				}
			}
			// A body the failed transport never closed stays readable (it was
			// drained above, so: stays at EOF, not someone else's bytes).
			for _, body := range flaky.held {
				if n, err := body.Read(make([]byte, 8)); n != 0 || err != io.EOF {
					t.Fatalf("held body reads %d, %v after its call returned", n, err)
				}
				_ = body.Close()
			}
			st := fd.Stats()
			if st.Errored != 0 || st.Shed() != 0 || st.Admitted != st.Completed {
				t.Fatalf("ledger: %+v", st)
			}
		})
	}
}

func head(b []byte) []byte {
	if len(b) > 24 {
		return b[:24]
	}
	return b
}

// headerHandler answers 418 with a two-valued X-Multi and X-Outer set.
var headerHandler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	w.Header().Add("X-Multi", "a")
	w.Header().Add("X-Multi", "b")
	w.Header().Set("X-Outer", "replica")
	w.WriteHeader(http.StatusTeapot)
})

// TestFrontDoorRelaysHeaders: multi-valued headers of a relayed replica's
// response arrive whole, and join — not replace — what an outer layer
// already set on the writer.
func TestFrontDoorRelaysHeaders(t *testing.T) {
	fd := NewFrontDoor(FrontDoorConfig{})
	fd.Add(NewReplica("r", HandlerTransport(headerHandler), 0))
	rec := httptest.NewRecorder()
	rec.Header().Set("X-Outer", "outer")
	fd.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
	if rec.Code != http.StatusTeapot {
		t.Fatalf("status %d", rec.Code)
	}
	if got := rec.Header()["X-Multi"]; len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("X-Multi = %v", got)
	}
	if got := rec.Header()["X-Outer"]; len(got) != 2 || got[0] != "outer" || got[1] != "replica" {
		t.Errorf("X-Outer = %v", got)
	}
	// A handed-over slice is clipped: appending to it cannot write into
	// an array the replica's side may share.
	if got := rec.Header()["X-Multi"]; cap(got) != len(got) {
		t.Errorf("relayed slice has spare capacity %d", cap(got)-len(got))
	}
}

// TestFrontDoorInPlaceHeaders: a local replica's handler writes into the
// client's writer itself, so its Set replaces what an outer layer set
// there, as it would serving the client directly.
func TestFrontDoorInPlaceHeaders(t *testing.T) {
	fd := NewFrontDoor(FrontDoorConfig{})
	fd.Add(NewLocalReplica("r", headerHandler, 0))
	rec := httptest.NewRecorder()
	rec.Header().Set("X-Outer", "outer")
	fd.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
	if rec.Code != http.StatusTeapot {
		t.Fatalf("status %d", rec.Code)
	}
	if got := rec.Header()["X-Multi"]; len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("X-Multi = %v", got)
	}
	if got := rec.Header()["X-Outer"]; len(got) != 1 || got[0] != "replica" {
		t.Errorf("X-Outer = %v", got)
	}
}

// TestFrontDoorInPlaceStatus: the status a local replica answers with in
// place is the one its EWMA, its failure count and the door's /metricz
// see: the first WriteHeader's, or 200 when the body comes first or
// nothing is written.
func TestFrontDoorInPlaceStatus(t *testing.T) {
	for _, tc := range []struct {
		name    string
		handler http.HandlerFunc
		code    int
		failed  bool
	}{
		{"503", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusServiceUnavailable) }, 503, true},
		{"writes nothing", func(http.ResponseWriter, *http.Request) {}, 200, false},
		{"a second WriteHeader after 200", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(200); w.WriteHeader(503) }, 200, false},
		{"a second WriteHeader after 502", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(502); w.WriteHeader(200) }, 502, true},
		{"WriteHeader after the body", func(w http.ResponseWriter, _ *http.Request) { fmt.Fprint(w, "x"); w.WriteHeader(500) }, 200, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fd := NewFrontDoor(FrontDoorConfig{})
			fd.Add(NewLocalReplica("r", tc.handler, 0))
			if rec := get(t, fd, "/x"); rec.Code != tc.code {
				t.Fatalf("client got %d, want %d", rec.Code, tc.code)
			}
			var failed uint64
			if tc.failed {
				failed = 1
			}
			if st := fd.Replica("r").Status(); st.Failed != failed || st.Completed != 1-failed {
				t.Errorf("replica counted failed %d, completed %d; want failed %d", st.Failed, st.Completed, failed)
			}
			if op := fd.metrics.Report().Operations["frontdoor.proxy"]; op.Calls != 1 || op.Errors != failed {
				t.Errorf("frontdoor.proxy: %d calls, %d errors; want 1, %d", op.Calls, op.Errors, failed)
			}
		})
	}
}

// TestFrontDoorInPlaceParallel: concurrent requests through one door over
// three local replicas, each with its own body and status, reuse the
// door's pooled per-request state. Every response must carry its own
// status, header and body, and the failures the replicas and /metricz
// count must be exactly the 5xx answers sent: a status writer carried
// over from an earlier request would keep that request's code.
func TestFrontDoorInPlaceParallel(t *testing.T) {
	fd := NewFrontDoor(FrontDoorConfig{Seed: 3})
	echo := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		code, err := strconv.Atoi(r.Header.Get("X-Status"))
		if err != nil {
			t.Errorf("X-Status: %v", err)
		}
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("X-Echo", string(body))
		w.WriteHeader(code)
		_, _ = w.Write(body)
	})
	for i := 0; i < 3; i++ {
		fd.Add(NewLocalReplica(fmt.Sprintf("r%d", i), echo, 0))
	}
	codes := []int{200, 201, 404, 500, 503, 200, 502}
	const goroutines, requests = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				code, body := codes[(g+i)%len(codes)], fmt.Sprintf("g%d-i%d", g, i)
				req := httptest.NewRequest(http.MethodPost, "/echo", strings.NewReader(body))
				req.Header.Set("X-Status", strconv.Itoa(code))
				rec := httptest.NewRecorder()
				fd.ServeHTTP(rec, req)
				if rec.Code != code || rec.Body.String() != body || rec.Header().Get("X-Echo") != body {
					t.Errorf("request %s: got %d %q (X-Echo %q), want %d", body, rec.Code, rec.Body, rec.Header().Get("X-Echo"), code)
					return
				}
			}
		}()
	}
	wg.Wait()
	var want5xx uint64
	for g := 0; g < goroutines; g++ {
		for i := 0; i < requests; i++ {
			if codes[(g+i)%len(codes)] >= 500 {
				want5xx++
			}
		}
	}
	var failed, completed uint64
	for _, rep := range fd.Replicas() {
		st := rep.Status()
		failed, completed = failed+st.Failed, completed+st.Completed
	}
	if failed != want5xx || failed+completed != goroutines*requests {
		t.Errorf("replicas counted %d failed, %d completed; want %d failed of %d", failed, completed, want5xx, goroutines*requests)
	}
	if op := fd.metrics.Report().Operations["frontdoor.proxy"]; op.Calls != goroutines*requests || op.Errors != want5xx {
		t.Errorf("frontdoor.proxy: %d calls, %d errors; want %d, %d", op.Calls, op.Errors, goroutines*requests, want5xx)
	}
}
