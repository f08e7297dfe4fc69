package host

import (
	"context"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"soc/internal/cloud"
	"soc/internal/core"
	"soc/internal/telemetry"
)

// echoService answers with its own arguments: Echo is idempotent (so it
// rides the response cache and its key canonicaliser), Tag is not.
func echoService(t testing.TB) *core.Service {
	t.Helper()
	svc, err := core.NewService("Echo", "http://soc.example/echo", "")
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []core.Operation{
		{Name: "Echo", Idempotent: true},
		{Name: "Tag"},
	} {
		op.Input = []core.Param{{Name: "text", Type: core.String}, {Name: "n", Type: core.Int}}
		op.Output = []core.Param{{Name: "text", Type: core.String}, {Name: "n", Type: core.Int}}
		op.Handler = func(_ context.Context, in core.Values) (core.Values, error) {
			return core.Values{"text": in.Str("text"), "n": in.Int("n")}, nil
		}
		if err := svc.AddOperation(op); err != nil {
			t.Fatal(err)
		}
	}
	return svc
}

// newEchoCluster assembles client → front door → replicas hosts in one
// process, every hop over cloud.HandlerTransport — the path, and the
// pools, the benchmark's request workloads run on.
func newEchoCluster(t testing.TB, replicas int) *Client {
	t.Helper()
	fd := cloud.NewFrontDoor(cloud.FrontDoorConfig{Tracer: telemetry.NewTracer(64)})
	for i := 0; i < replicas; i++ {
		h := New()
		h.MustMount(echoService(t))
		h.UseResponseCache(256, time.Hour)
		fd.Add(cloud.NewLocalReplica(fmt.Sprintf("replica-%d", i), h, 0))
	}
	return &Client{
		BaseURL:    "http://echo.test",
		HTTPClient: &http.Client{Transport: cloud.HandlerTransport(fd), Timeout: 30 * time.Second},
		Tracer:     telemetry.NewTracer(64),
	}
}

// TestClientPoolsDoNotAlias: every buffer, keyer, proxy call and
// parameter map on the path is pooled, so the failure to fear is one
// request's bytes surfacing in another's. Eight goroutines send 500 calls
// each with arguments no other call has, REST and SOAP, cached and not;
// every answer must be its own request's, and the answer before it — held
// across the next call — must not have changed. Run under -race.
func TestClientPoolsDoNotAlias(t *testing.T) {
	c := newEchoCluster(t, 3)
	const workers, calls = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			var held any // the previous answer and what it must still equal
			var heldWant any
			for i := 0; i < calls; i++ {
				// (closed with a dot: the SOAP codec trims a value's outer space)
				text := fmt.Sprintf("g%d-i%d-%s.", g, i, string([]rune("<&>\"é \u2028世")[:i%9]))
				n := int64(g*calls + i)
				args := core.Values{"text": text, "n": n}
				op := [2]string{"Echo", "Tag"}[i/2%2]
				var got, want any
				if i%2 == 0 {
					out, err := c.Call(ctx, "Echo", op, args)
					if err != nil {
						t.Errorf("REST %s %q: %v", op, text, err)
						return
					}
					got, want = out, core.Values{"text": text, "n": float64(n)}
				} else {
					out, err := c.CallSOAP(ctx, "Echo", op, "http://soc.example/echo", args)
					if err != nil {
						t.Errorf("SOAP %s %q: %v", op, text, err)
						return
					}
					got, want = out, map[string]string{"text": text, "n": fmt.Sprint(n)}
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("call g%d-i%d answered %v, want %v", g, i, got, want)
					return
				}
				if held != nil && !reflect.DeepEqual(held, heldWant) {
					t.Errorf("answer held across call g%d-i%d changed to %v, want %v", g, i, held, heldWant)
					return
				}
				held, heldWant = got, want
			}
		}()
	}
	wg.Wait()
}

// TestClientFollowsItsFields: the per-operation records are resolved from
// the client's exported fields and must not outlive a reassignment.
func TestClientFollowsItsFields(t *testing.T) {
	a, b := newEchoCluster(t, 1), newEchoCluster(t, 1)
	c := &Client{BaseURL: a.BaseURL, HTTPClient: a.HTTPClient}
	ctx := context.Background()
	if _, err := c.Call(ctx, "Echo", "Tag", core.Values{"text": "x", "n": 1}); err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTracer(8)
	c.BaseURL, c.HTTPClient, c.Tracer = "http://elsewhere.test", b.HTTPClient, tr
	if _, err := c.Call(ctx, "Echo", "Tag", core.Values{"text": "y", "n": 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CallSOAP(ctx, "Echo", "Tag", "", core.Values{"text": "z", "n": 3}); err != nil {
		t.Fatal(err)
	}
	spans := tr.Snapshot()
	if len(spans) != 2 || spans[0].Target != "http://elsewhere.test" || spans[1].Target != "http://elsewhere.test/services/Echo/soap" {
		t.Fatalf("spans after reassigning the fields: %+v", spans)
	}
	c.BaseURL = "http://bad host"
	if _, err := c.Call(ctx, "Echo", "Tag", nil); err == nil {
		t.Fatal("unparsable BaseURL accepted")
	}
}
