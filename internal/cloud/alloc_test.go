//go:build !race

package cloud

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"soc/internal/telemetry"
)

// TestHandlerTransportAllocCeiling: one in-memory exchange is the
// exchange itself (writer, response and body reader in one allocation)
// and the response's header map; the body bytes are pooled.
func TestHandlerTransportAllocCeiling(t *testing.T) {
	contentType, pong := []string{"text/plain"}, []byte("pong")
	rt := HandlerTransport(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header()["Content-Type"] = contentType
		_, _ = w.Write(pong)
	}))
	req := httptest.NewRequest(http.MethodGet, "/ping", nil)
	allocs := testing.AllocsPerRun(200, func() {
		resp, err := rt.RoundTrip(req)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatal(resp, err)
		}
		_ = resp.Body.Close()
	})
	if allocs > 3 {
		t.Errorf("handlerTransport.RoundTrip allocates %.1f/op, ceiling 3", allocs)
	}
}

// TestFrontDoorHopAllocCeiling: one traced, proxied POST over a local
// replica, both in-memory exchanges included (door ← caller, replica ←
// door). Measured 9 on go1.24 — two exchanges at 3, the root and attempt
// spans' contexts and the forwarded request; the span name is interned —
// and pinned at that plus 10 %.
func TestFrontDoorHopAllocCeiling(t *testing.T) {
	contentType, answer := []string{"application/json"}, []byte(`{"ok":true}`)
	fd := NewFrontDoor(FrontDoorConfig{Tracer: telemetry.NewTracer(64)})
	fd.Add(NewLocalReplica("r", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header()["Content-Type"] = contentType
		_, _ = w.Write(answer)
	}), 0))
	door := HandlerTransport(fd)
	body := strings.NewReader("")
	req := httptest.NewRequest(http.MethodPost, "/services/S/invoke/Op", nil)
	req.Body = io.NopCloser(body)
	hop := func() {
		body.Reset(`{"n":27}`)
		resp, err := door.RoundTrip(req)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatal(resp, err)
		}
		_ = resp.Body.Close()
	}
	hop()
	if allocs := testing.AllocsPerRun(200, hop); allocs > 10 {
		t.Errorf("one front-door hop allocates %.1f/op, ceiling 10", allocs)
	}
}
