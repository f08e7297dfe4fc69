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
// the span) — and for a proxy hop the one shallow copy, none when it is
// made in storage the caller reuses.
func TestRequestConstructorAllocCeilings(t *testing.T) {
	rt, err := NewRoute(http.MethodPost, "http://example/services/S/invoke/Op", "S.Op",
		"Content-Type", "application/json", "Accept", "application/json")
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewSamplingTracer(8, 1)
	var req *http.Request
	allocs := testing.AllocsPerRun(200, func() {
		sp, ctx := tr.StartSpan(context.Background(), telemetry.KindClient, rt.Name)
		body := GetBuffer()
		body.B = append(body.B, "{}"...)
		req = rt.NewRequest(ctx, telemetry.CallTraceOf(ctx), body)
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
		out := new(Forwarded).Forward(context.Background(), req, payload, owner)
		_ = out.Body.Close()
	})
	if allocs > 1 {
		t.Errorf("Forward on fresh storage allocates %.1f/op, ceiling 1", allocs)
	}
	var fwd Forwarded
	allocs = testing.AllocsPerRun(200, func() {
		out := fwd.Forward(context.Background(), req, payload, owner)
		_ = out.Body.Close()
	})
	if allocs > 0 {
		t.Errorf("Forward on reused storage allocates %.1f/op, ceiling 0", allocs)
	}
}

// Do adds nothing to a request without a Timeout. With one it adds the
// deadlineBody — context, cancel and body guard in one — and, for an
// exchange nobody waited on, neither channel nor timer; the request is
// rebound in place, not copied. For a request Route.NewRequest built with
// a body, as the binding clients send, the deadline is a field of the
// request and costs nothing. context.WithDeadline and a separate guard
// spent 5 on the second exchange, http.Client.Do 3 and 26 on the two, with
// a goroutine started for the second.
func TestDoAllocCeilings(t *testing.T) {
	rt, err := NewRoute(http.MethodPost, "http://example/services/S/invoke/Op", "S.Op")
	if err != nil {
		t.Fatal(err)
	}
	body := io.NopCloser(strings.NewReader(""))
	transport := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		_ = r.Body.Close()
		return &http.Response{StatusCode: http.StatusOK, Body: body}, nil
	})
	for _, tc := range []struct {
		timeout time.Duration
		payload string
		ceiling float64
	}{{0, "", 0}, {30 * time.Second, "", 1}, {30 * time.Second, "{}", 0}} {
		hc := &http.Client{Transport: transport, Timeout: tc.timeout}
		var req *http.Request
		build := func() {
			b := GetBuffer()
			b.B = append(b.B, tc.payload...)
			req = rt.NewRequest(context.Background(), telemetry.CallTrace{}, b)
		}
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
			t.Errorf("Do with Timeout %v of a %d-byte body allocates %.1f/op, ceiling %.0f", tc.timeout, len(tc.payload), own, tc.ceiling)
		}
	}
}
