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

// TestFrontDoorHopAllocCeiling: one traced, proxied POST over a local
// replica, the caller's in-memory exchange with the door included; the
// replica serves in place, into the door's writer. Measured 5 on go1.24 —
// the exchange at 3 and the root and attempt spans' contexts; the span
// name is interned and the forwarded request is made in the pooled
// per-request state — and pinned at that plus 10 %.
func TestFrontDoorHopAllocCeiling(t *testing.T) {
	contentType, answer := []string{"application/json"}, []byte(`{"ok":true}`)
	fd := NewFrontDoor(FrontDoorConfig{Tracer: telemetry.NewSamplingTracer(64, 1)})
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
	if allocs := testing.AllocsPerRun(200, hop); allocs > 5.5 {
		t.Errorf("one front-door hop allocates %.1f/op, ceiling 5.5", allocs)
	}
}
