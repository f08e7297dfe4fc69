//go:build !race

package callplane

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"soc/internal/telemetry"
)

// The request constructors are the client half's fixed cost per call:
// the request with its body reader and trace value (one allocation), its
// header map (two) and the span's trace-parent string (one, cached on
// the span) — and for a proxy hop the one shallow copy.
func TestRequestConstructorAllocCeilings(t *testing.T) {
	rt, err := NewRoute(http.MethodPost, "http://example/services/S/invoke/Op", "S.Op",
		"Content-Type", "application/json", "Accept", "application/json")
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTracer(8)
	var req *http.Request
	allocs := testing.AllocsPerRun(200, func() {
		sp, ctx := tr.StartSpan(context.Background(), telemetry.KindClient, rt.Name)
		body := GetBuffer()
		body.B = append(body.B, "{}"...)
		req = rt.NewRequest(ctx, body)
		_ = req.Body.Close()
		sp.End()
	})
	// +1: StartSpan's context value.
	if allocs > 5 {
		t.Errorf("Route.NewRequest under a span allocates %.1f/op, ceiling 5", allocs)
	}
	owner := &countingOwner{}
	payload := []byte("{}")
	allocs = testing.AllocsPerRun(200, func() {
		out := Forward(context.Background(), req, payload, owner)
		_ = out.Body.Close()
	})
	if allocs > 1 {
		t.Errorf("Forward allocates %.1f/op, ceiling 1", allocs)
	}
}

// Do adds nothing to a request without a Timeout. With one it adds the
// deadlineBody — context, cancel and body guard in one — and, for an
// exchange nobody waited on, neither channel nor timer; the request is
// rebound in place, not copied. context.WithDeadline and a separate guard
// spent 5 on the second exchange, http.Client.Do 3 and 26 on the two, with
// a goroutine started for the second.
func TestDoAllocCeilings(t *testing.T) {
	rt, err := NewRoute(http.MethodPost, "http://example/services/S/invoke/Op", "S.Op")
	if err != nil {
		t.Fatal(err)
	}
	body := io.NopCloser(strings.NewReader(""))
	transport := roundTripFunc(func(*http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: http.StatusOK, Body: body}, nil
	})
	for _, tc := range []struct {
		timeout time.Duration
		ceiling float64
	}{{0, 0}, {30 * time.Second, 1}} {
		hc := &http.Client{Transport: transport, Timeout: tc.timeout}
		var req *http.Request
		build := func() { req = rt.NewRequest(context.Background(), nil) }
		building := testing.AllocsPerRun(200, build)
		allocs := testing.AllocsPerRun(200, func() {
			build()
			got, err := Do(hc, req)
			if err != nil {
				t.Fatal(err)
			}
			_ = got.Body.Close()
		})
		// -1: the transport's response.
		if own := allocs - building - 1; own > tc.ceiling {
			t.Errorf("Do with Timeout %v allocates %.1f/op, ceiling %.0f", tc.timeout, own, tc.ceiling)
		}
	}
}
