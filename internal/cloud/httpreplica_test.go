package cloud

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"soc/internal/telemetry"
)

// TestHTTPReplicaOverLoopback drives the front door through
// NewHTTPReplica against real loopback listeners: the replica's status,
// headers and body are relayed, the caller's X-Soc-Trace reaches the
// replica, a replica whose listener is closed fails over to its live
// sibling and shows as failed in /clusterz, and a caller that cancels
// mid-exchange is not counted against the replica it was talking to.
func TestHTTPReplicaOverLoopback(t *testing.T) {
	traces := make(chan string, 16)
	hung := make(chan struct{}, 1)
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/hang" {
			hung <- struct{}{}
			<-r.Context().Done()
			return
		}
		traces <- r.Header.Get(telemetry.HeaderName)
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("X-Replica", "live")
		w.WriteHeader(http.StatusCreated)
		fmt.Fprintf(w, "%s %s", r.Method, body)
	}))
	defer live.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()

	fd := NewFrontDoor(FrontDoorConfig{Seed: 9})
	for name, url := range map[string]string{"live": live.URL, "dead": dead.URL} {
		rep, err := NewHTTPReplica(name, url, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		fd.Add(rep)
	}

	// An unsampled replica scores lowest, so the dead one is picked within
	// two calls; every call still lands on the live sibling.
	sc := telemetry.SpanContext{TraceID: telemetry.NewTraceID(), SpanID: telemetry.NewSpanID()}
	const calls = 4
	for i := 0; i < calls; i++ {
		req := httptest.NewRequest(http.MethodPost, "/echo", strings.NewReader(fmt.Sprint("ping ", i)))
		req.Header.Set(telemetry.HeaderName, telemetry.FormatTraceParent(sc))
		rec := httptest.NewRecorder()
		fd.ServeHTTP(rec, req)
		if want := fmt.Sprint("POST ping ", i); rec.Code != http.StatusCreated ||
			rec.Body.String() != want || rec.Header().Get("X-Replica") != "live" {
			t.Fatalf("call %d relayed %d %q X-Replica=%q, want 201 %q live",
				i, rec.Code, rec.Body.String(), rec.Header().Get("X-Replica"), want)
		}
		if got, ok := telemetry.ParseTraceParent(<-traces); !ok || got.TraceID != sc.TraceID {
			t.Fatalf("call %d: replica saw trace %v (ok=%v), want %v", i, got.TraceID, ok, sc.TraceID)
		}
	}

	// The caller cancels once the live replica holds the request.
	before := fd.Replica("live").Status()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-hung
		cancel()
	}()
	rec := httptest.NewRecorder()
	fd.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/hang", nil).WithContext(ctx))
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("cancelled exchange answered %d, want 502", rec.Code)
	}
	after := fd.Replica("live").Status()
	if after.Failed != before.Failed || after.EWMALatencyNanos != before.EWMALatencyNanos {
		t.Fatalf("live replica blamed for its caller: failed %d → %d, EWMA %d → %d ns",
			before.Failed, after.Failed, before.EWMALatencyNanos, after.EWMALatencyNanos)
	}

	var cz clusterzReport
	if err := json.Unmarshal(get(t, fd, "/clusterz").Body.Bytes(), &cz); err != nil {
		t.Fatal(err)
	}
	status := map[string]ReplicaStatus{}
	for _, rs := range cz.Replicas {
		status[rs.Name] = rs
	}
	if d := status["dead"]; d.Failed != 1 || d.Completed != 0 {
		t.Fatalf("/clusterz dead replica %+v, want failed 1, completed 0", d)
	}
	if l := status["live"]; l.Failed != 0 || l.Completed != calls {
		t.Fatalf("/clusterz live replica %+v, want failed 0, completed %d", l, calls)
	}
	if st := cz.Stats; st.Completed != calls || st.Errored != 1 || st.Admitted != st.Completed+st.Errored+st.ShedBusy {
		t.Fatalf("ledger %+v", st)
	}
}
