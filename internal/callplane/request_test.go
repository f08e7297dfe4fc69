package callplane

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"soc/internal/telemetry"
)

func TestRouteNewRequest(t *testing.T) {
	rt, err := NewRoute(http.MethodPost, "http://example:81/services/Calc/invoke/Add?x=1", "Calc.Add",
		"content-type", "application/json", "Accept", "application/json")
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewSamplingTracer(8, 1)
	sp, ctx := tr.StartSpan(context.Background(), telemetry.KindClient, rt.Name)
	defer sp.End()

	body := GetBuffer()
	body.B = append(body.B, `{"a":1}`...)
	req := rt.NewRequest(ctx, sp.TraceParent(), body)
	if req.Method != http.MethodPost || req.URL.String() != "http://example:81/services/Calc/invoke/Add?x=1" || req.Host != "example:81" {
		t.Fatalf("request line = %s %s host %q", req.Method, req.URL, req.Host)
	}
	if req.Context() != ctx {
		t.Fatal("request not bound to caller context")
	}
	if got := req.Header.Get("Content-Type"); got != "application/json" {
		t.Fatalf("Content-Type = %q (keys must be canonical)", got)
	}
	if got := req.Header.Get(telemetry.HeaderName); got != sp.TraceParent() {
		t.Fatalf("trace header = %q, want %q", got, sp.TraceParent())
	}
	if req.ContentLength != 7 || req.GetBody != nil {
		t.Fatalf("ContentLength = %d, GetBody set = %v", req.ContentLength, req.GetBody != nil)
	}
	got, err := io.ReadAll(req.Body)
	if err != nil || string(got) != `{"a":1}` {
		t.Fatalf("body = %q, %v", got, err)
	}
	// A request's header map is its own: writing to it must not reach the
	// route or the next request.
	req.Header.Set("Accept", "text/plain")
	req.Header.Add("Content-Type", "x")
	if h := rt.NewRequest(context.Background(), "", nil).Header; h.Get("Accept") != "application/json" || len(h["Content-Type"]) != 1 {
		t.Fatalf("route headers changed through a request: %v", h)
	}

	// Untraced, bodiless.
	req2 := rt.NewRequest(context.Background(), "", nil)
	if _, stamped := req2.Header[telemetry.HeaderName]; stamped {
		t.Fatal("header stamped without an active span")
	}
	if req2.Body != http.NoBody || req2.ContentLength != 0 {
		t.Fatalf("bodiless request has Body %v, ContentLength %d", req2.Body, req2.ContentLength)
	}

	if _, err := NewRoute("GET", "http://bad host/", ""); err == nil {
		t.Fatal("NewRoute accepted an unparsable URL")
	}
}

// countingOwner counts Release calls.
type countingOwner struct{ n int }

func (o *countingOwner) Release() { o.n++ }

func TestForwardSharesTheRequestAndReplaysTheBody(t *testing.T) {
	in, err := http.NewRequest(http.MethodPost, "http://door/services/S/invoke/Op", strings.NewReader("ignored"))
	if err != nil {
		t.Fatal(err)
	}
	in.Header.Set(telemetry.HeaderName, "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01")
	in.RequestURI = "/services/S/invoke/Op"
	type key struct{}
	ctx := context.WithValue(context.Background(), key{}, "attempt")

	owner := &countingOwner{}
	out := Forward(ctx, in, []byte("payload"), owner)
	if out == in {
		t.Fatal("Forward returned the inbound request")
	}
	if out.Context().Value(key{}) != "attempt" || in.Context().Value(key{}) != nil {
		t.Fatal("the copy, and only the copy, must be bound to the attempt context")
	}
	if out.URL != in.URL || out.RequestURI != in.RequestURI || out.Header.Get(telemetry.HeaderName) != in.Header.Get(telemetry.HeaderName) {
		t.Fatal("the copy must share the inbound request's URL and headers")
	}
	if out.ContentLength != 7 {
		t.Fatalf("ContentLength = %d", out.ContentLength)
	}
	got, _ := io.ReadAll(out.Body)
	if string(got) != "payload" {
		t.Fatalf("body = %q", got)
	}
	if owner.n != 0 {
		t.Fatal("owner released before Close")
	}
	_ = out.Body.Close()
	_ = out.Body.Close()
	if owner.n != 1 {
		t.Fatalf("owner released %d times over two Closes, want 1", owner.n)
	}
	if n, err := out.Body.Read(make([]byte, 4)); n != 0 || err != io.EOF {
		t.Fatalf("Read after Close = %d, %v", n, err)
	}

	// No body: the owner hears at once, the request carries NoBody.
	owner = &countingOwner{}
	if out := Forward(ctx, in, nil, owner); out.Body != http.NoBody || out.ContentLength != 0 || owner.n != 1 {
		t.Fatalf("bodiless forward: Body %v, ContentLength %d, released %d", out.Body, out.ContentLength, owner.n)
	}
}

func TestBufferFill(t *testing.T) {
	long := strings.Repeat("x", 5000) // several growth steps past the pooled 1 KiB
	b := GetBuffer()
	defer b.Release()
	if err := b.Fill(strings.NewReader(long), 1<<20); err != nil || string(b.B) != long {
		t.Fatalf("Fill read %d bytes, %v", len(b.B), err)
	}
	b.B = b.B[:0]
	if err := b.Fill(strings.NewReader(long), 1234); err != nil || len(b.B) != 1234 {
		t.Fatalf("Fill past its limit holds %d bytes, %v; want 1234", len(b.B), err)
	}
	b.B = append(b.B[:0], "head"...)
	boom := errors.New("boom")
	if err := b.Fill(io.MultiReader(strings.NewReader("-tail"), errReader{boom}), 1<<20); err != boom || string(b.B) != "head-tail" {
		t.Fatalf("Fill = %q, %v", b.B, err)
	}
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

func TestRecordsResolveOncePerKeyAndStayBounded(t *testing.T) {
	var recs Records[string, *int]
	var mu sync.Mutex
	resolved := map[string]int{}
	resolve := func(k string) (*int, error) {
		if k == "bad" {
			return nil, errors.New("unresolvable")
		}
		mu.Lock()
		resolved[k]++
		mu.Unlock()
		return new(int), nil
	}
	var wg sync.WaitGroup
	got := make([]*int, 8)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v, err := recs.Get(fmt.Sprint("k", i%5), resolve)
				if err != nil {
					t.Error(err)
				}
				if i%5 == 0 {
					got[g] = v
				}
			}
		}()
	}
	wg.Wait()
	for _, v := range got {
		if v != got[0] {
			t.Fatal("goroutines hold different records for one key")
		}
	}
	if _, err := recs.Get("bad", resolve); err == nil {
		t.Fatal("resolve error not returned")
	}
	for i := 0; i < maxRecords+50; i++ {
		if _, err := recs.Get(fmt.Sprint("fill", i), resolve); err != nil {
			t.Fatal(err)
		}
	}
	recs.mu.RLock()
	n := len(recs.m)
	recs.mu.RUnlock()
	if n != maxRecords {
		t.Fatalf("table holds %d records, bound is %d", n, maxRecords)
	}
	// Past the bound a key still resolves, per call.
	before := resolved["overflow"]
	for i := 0; i < 3; i++ {
		if v, err := recs.Get("overflow", resolve); err != nil || v == nil {
			t.Fatal(v, err)
		}
	}
	if resolved["overflow"]-before != 3 {
		t.Fatalf("overflow key resolved %d times in 3 calls", resolved["overflow"]-before)
	}
}

func TestInvocationSpanNameAndRemote(t *testing.T) {
	inv := &Invocation{Service: "frontdoor", Operation: "GET /x", SpanName: "precomputed"}
	if inv.Name() != "precomputed" {
		t.Fatalf("Name = %q", inv.Name())
	}
	tr := telemetry.NewSamplingTracer(8, 1)
	remote := telemetry.SpanContext{TraceID: telemetry.NewTraceID(), SpanID: telemetry.NewSpanID(), Sampled: true}
	chain := Chain(Terminal, WithSpan(tr, telemetry.KindClient))
	do := func(context.Context, *Invocation) error { return nil }

	// No active span: the root joins the remote's trace.
	if err := chain.RoundTrip(context.Background(), &Invocation{Operation: "a", Remote: remote, Do: do}); err != nil {
		t.Fatal(err)
	}
	// An active span wins over the remote, as it does in StartSpan.
	parent, ctx := tr.StartSpan(context.Background(), telemetry.KindClient, "parent")
	want := parent.Context()
	if err := chain.RoundTrip(ctx, &Invocation{Operation: "b", Remote: remote, Do: do}); err != nil {
		t.Fatal(err)
	}
	parent.End()
	for _, sp := range tr.Snapshot() {
		switch sp.Name {
		case "a":
			if sp.TraceID != remote.TraceID || sp.Parent != remote.SpanID {
				t.Errorf("span a parented on %v/%v, want the remote", sp.TraceID, sp.Parent)
			}
		case "b":
			if sp.TraceID != want.TraceID || sp.Parent != want.SpanID {
				t.Errorf("span b parented on %v/%v, want the active span", sp.TraceID, sp.Parent)
			}
		}
	}
}
