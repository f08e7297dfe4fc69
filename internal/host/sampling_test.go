package host

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soc/internal/cloud"
	"soc/internal/core"
	"soc/internal/telemetry"
)

// TestTracesWholeOrAbsent: four goroutines call through host.Client, a
// front door and three cached hosts, every tracer sampling its roots at
// 1/4. Only the client roots traces; the door and the hosts inherit its
// decision. So every trace ID is at the client, the door and a host, or
// at none of them; the client keeps exactly the traces its sampler's
// draw says; and a cache hit is an event of a sampled trace only.
func TestTracesWholeOrAbsent(t *testing.T) {
	const (
		rate               = 0.25
		workers, perWorker = 4, 64
	)
	svc, err := core.NewService("Calc", "http://soc.example/calc", "")
	if err != nil {
		t.Fatal(err)
	}
	var bumps atomic.Int64
	svc.MustAddOperation(core.Operation{
		Name:       "Square",
		Idempotent: true,
		Input:      []core.Param{{Name: "n", Type: core.Int}},
		Output:     []core.Param{{Name: "result", Type: core.Int}},
		Handler: func(_ context.Context, in core.Values) (core.Values, error) {
			return core.Values{"result": in.Int("n") * in.Int("n")}, nil
		},
	})
	svc.MustAddOperation(core.Operation{
		Name:   "Bump",
		Output: []core.Param{{Name: "count", Type: core.Int}},
		Handler: func(context.Context, core.Values) (core.Values, error) {
			return core.Values{"count": bumps.Add(1)}, nil
		},
	})
	doorTracer := telemetry.NewSamplingTracer(4096, rate)
	fd := cloud.NewFrontDoor(cloud.FrontDoorConfig{Tracer: doorTracer})
	var hosts []*Host
	for i := 0; i < 3; i++ {
		h := New()
		h.tracer = telemetry.NewSamplingTracer(4096, rate)
		h.MustMount(svc)
		h.UseResponseCache(64, time.Hour)
		fd.Add(cloud.NewLocalReplica(fmt.Sprintf("r%d", i), h, 0))
		hosts = append(hosts, h)
	}
	c := &Client{
		BaseURL:    "http://door.test",
		HTTPClient: &http.Client{Transport: cloud.HandlerTransport(fd), Timeout: 10 * time.Second},
		Tracer:     telemetry.NewSamplingTracer(4096, rate),
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var err error
				switch i % 4 {
				case 0, 1: // cached after the first call per host and n
					_, err = c.Call(ctx, "Calc", "Square", core.Values{"n": int64(i % 3)})
				case 2:
					_, err = c.Call(ctx, "Calc", "Bump", nil)
				default:
					_, err = c.CallSOAP(ctx, "Calc", "Square", "http://soc.example/calc", core.Values{"n": int64(i % 5)})
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	traces := func(spans []telemetry.Span) map[telemetry.TraceID]int {
		ids := map[telemetry.TraceID]int{}
		for _, sp := range spans {
			ids[sp.TraceID]++
		}
		return ids
	}
	client := traces(c.Tracer.Snapshot())
	door := traces(doorTracer.Snapshot())
	var hostSpans []telemetry.Span
	for _, h := range hosts {
		hostSpans = append(hostSpans, h.tracer.Snapshot()...)
	}
	atHost := traces(hostSpans)

	// The draw is a function of the root's number alone: a fresh tracer
	// of the same rate, rooting as many traces one by one, keeps as many.
	ref := telemetry.NewSamplingTracer(workers*perWorker, rate)
	for k := 0; k < workers*perWorker; k++ {
		sp, _ := ref.StartSpan(ctx, telemetry.KindClient, "ref")
		sp.End()
	}
	want := int(ref.Recorded())
	if len(client) != want || int(c.Tracer.Recorded()) != want {
		t.Errorf("client kept %d traces in %d spans, the sampler's draw says %d", len(client), c.Tracer.Recorded(), want)
	}
	for id := range client {
		if door[id] != 2 || atHost[id] != 1 {
			t.Errorf("sampled trace %s: %d door spans, %d host spans; want 2 and 1", id, door[id], atHost[id])
		}
	}
	for what, ids := range map[string]map[telemetry.TraceID]int{"door": door, "host": atHost} {
		for id := range ids {
			if client[id] == 0 {
				t.Errorf("trace %s is at the %s but not at the client", id, what)
			}
		}
	}
	hits := 0
	for _, sp := range hostSpans {
		if sp.Kind == telemetry.KindCache {
			hits++
			if client[sp.TraceID] == 0 {
				t.Errorf("cache-hit event in unsampled trace %s", sp.TraceID)
			}
		}
	}
	if hits == 0 {
		t.Error("no sampled call hit a cache: the mix exercises nothing cached")
	}
}
