//go:build !race

package callplane

import (
	"context"
	"net/http"
	"testing"

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
