//go:build !race

// An external test package: cloud imports registry, so its in-memory
// transport can only carry the registry's client from outside it.
package registry_test

import (
	"context"
	"fmt"
	"net/http"
	"testing"
	"time"

	"soc/internal/cloud"
	"soc/internal/registry"
	"soc/internal/telemetry"
)

// TestClientSearchAllocCeiling pins a remote Search end to end over one
// in-memory exchange, the way registry-churn drives it: the client's span
// and request, callplane.Do under a Timeout (1), the API's routing, the
// search itself (12, see TestSearchAllocCeiling) and encoding/json on
// both sides of the answer. Measured 125, given 1; through http.Client.Do
// the same call measured 151.
func TestClientSearchAllocCeiling(t *testing.T) {
	reg := registry.New()
	for i := 0; i < 50; i++ {
		err := reg.Publish(registry.Entry{
			Name:       fmt.Sprintf("Service%d", i),
			Namespace:  "urn:x",
			Doc:        fmt.Sprintf("sample keyword service number %d for testing", i),
			Category:   "testing/sample",
			Endpoint:   "http://example.invalid",
			Operations: []string{"DoWork", "GetStatus"},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	c := &registry.Client{
		BaseURL:    "http://registry.test",
		HTTPClient: &http.Client{Transport: cloud.HandlerTransport(registry.NewAPI(reg)), Timeout: 30 * time.Second},
		Tracer:     telemetry.NewSamplingTracer(64, 1),
	}
	search := func() {
		matches, err := c.Search(context.Background(), "keyword status", 5)
		if err != nil || len(matches) != 5 {
			t.Fatal(len(matches), err)
		}
	}
	search()
	if allocs := testing.AllocsPerRun(200, search); allocs > 126 {
		t.Errorf("Client.Search allocates %.1f/op, ceiling 126", allocs)
	}
}
