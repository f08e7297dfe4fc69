//go:build !race

// An external test package: services imports host, so the real
// Encryption service can only be mounted from outside it.
package host_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"soc/internal/core"
	"soc/internal/host"
	"soc/internal/services"
)

// TestInvokeAllocCeilings pins an idempotent operation with real work —
// Encryption.Decrypt, AES-GCM under a passphrase-derived key — invoked
// by GET through Host.ServeHTTP, answered by the handler and answered
// from the response cache. The hit path is router match, cache keying,
// lookup, replay and the cache-hit count: measured 2, 3 while a lookup
// copied its key into a string. The miss path adds coercion, the handler
// (PBKDF2 + AES-GCM, see the security ceilings) and the JSON answer:
// measured 20, 22 while Invoke coerced its args into a fresh map, 27
// while it copied a conforming result.
func TestInvokeAllocCeilings(t *testing.T) {
	encSvc, err := services.NewEncryption()
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := encSvc.Invoke(context.Background(), "Encrypt", core.Values{
		"passphrase": "correct horse battery", "plaintext": "the quick brown fox",
	})
	if err != nil {
		t.Fatal(err)
	}
	// The handlers read only r.URL and r.Header of a GET, so one request
	// and one recorder serve every run.
	req := httptest.NewRequest(http.MethodGet, "/services/Encryption/invoke/Decrypt?"+url.Values{
		"passphrase": {"correct horse battery"},
		"ciphertext": {sealed.Str("ciphertext")},
	}.Encode(), nil)
	for _, tc := range []struct {
		name    string
		cached  bool
		ceiling float64
	}{
		{"cached", true, 2},
		{"uncached", false, 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := host.New()
			h.MustMount(encSvc)
			if tc.cached {
				h.UseResponseCache(128, time.Hour)
			}
			w := httptest.NewRecorder()
			invoke := func() {
				w.Body.Reset()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK || w.Body.Len() == 0 {
					t.Fatalf("status %d: %s", w.Code, w.Body.String())
				}
			}
			invoke() // warm pools, fill the cache
			allocs := testing.AllocsPerRun(200, invoke)
			if allocs > tc.ceiling {
				t.Errorf("%s invoke allocates %.1f/op, ceiling %.0f", tc.name, allocs, tc.ceiling)
			}
		})
	}
}
