package host

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"soc/internal/core"
	"soc/internal/soap"
	"soc/internal/telemetry"
)

// TestClientRequestShape pins what a SOAP request carries: the two static
// headers, SOAPAction built from namespace and operation, the trace
// context both as transport header and as the envelope's SocTrace header
// entry, and the parameters ordered by name; and the one client span each
// call records, named after the operation, with the SOAP URL as its
// target. A second namespace for the same operation gets its own
// SOAPAction and answer.
func TestClientRequestShape(t *testing.T) {
	var action, contentType, transportTrace, envelope string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		action, contentType = r.Header.Get("SOAPAction"), r.Header.Get("Content-Type")
		transportTrace = r.Header.Get(telemetry.HeaderName)
		b, _ := io.ReadAll(r.Body)
		envelope = string(b)
		req, err := soap.DecodeBytes(b)
		if err != nil {
			t.Errorf("request envelope: %v", err)
			return
		}
		// The answer names the namespace it was asked in.
		answer, err := soap.Encode(soap.Message{Operation: req.Operation + "Response", Namespace: req.Namespace,
			Params: map[string]string{"ns": req.Namespace}})
		if err != nil {
			t.Error(err)
			return
		}
		w.Header().Set("Content-Type", soap.ContentType)
		_, _ = w.Write(answer)
	}))
	defer ts.Close()
	tr := telemetry.NewSamplingTracer(8, 1)
	c := &Client{BaseURL: ts.URL, Tracer: tr}
	ctx := context.Background()

	out, err := c.CallSOAP(ctx, "Svc", "Echo", "urn:x", core.Values{"b": 2, "a": 1})
	if err != nil || out["ns"] != "urn:x" {
		t.Fatalf("CallSOAP under urn:x = %v, %v", out, err)
	}
	if action != `"urn:x#Echo"` || contentType != soap.ContentType {
		t.Errorf("SOAPAction = %s, Content-Type = %q", action, contentType)
	}
	spans := tr.Snapshot()
	if len(spans) != 1 || spans[0].Name != "Echo" || spans[0].Kind != telemetry.KindClient {
		t.Fatalf("spans = %+v", spans)
	}
	if sp := spans[0]; sp.Target != ts.URL+"/services/Svc/soap" ||
		len(sp.Annotations()) != 1 || sp.Annotations()[0] != (telemetry.Annotation{Key: "binding", Value: "soap"}) {
		t.Errorf("span target %q, annotations %v; want the SOAP URL and binding=soap", sp.Target, sp.Annotations())
	}
	tp := telemetry.FormatTraceParent(telemetry.SpanContext{TraceID: spans[0].TraceID, SpanID: spans[0].SpanID, Sampled: true})
	if transportTrace != tp {
		t.Errorf("transport trace = %q, want %q", transportTrace, tp)
	}
	wantHeader := "<soap:Header><SocTrace>" + tp + "</SocTrace></soap:Header>"
	if !strings.Contains(envelope, wantHeader) {
		t.Errorf("envelope header entries: want %s in\n%s", wantHeader, envelope)
	}
	if !strings.Contains(envelope, `<Echo xmlns="urn:x"><a>1</a><b>2</b></Echo>`) {
		t.Errorf("envelope body: %s", envelope)
	}

	// The same operation under a second namespace.
	out, err = c.CallSOAP(ctx, "Svc", "Echo", "urn:y", nil)
	if err != nil || out["ns"] != "urn:y" {
		t.Fatalf("CallSOAP under urn:y = %v, %v", out, err)
	}
	if action != `"urn:y#Echo"` || !strings.Contains(envelope, `<Echo xmlns="urn:y">`) {
		t.Errorf("under urn:y: SOAPAction = %s, envelope %s", action, envelope)
	}
	// No namespace: the action is the bare operation.
	if _, err := c.CallSOAP(ctx, "Svc", "Echo", "", nil); err != nil {
		t.Fatal(err)
	}
	if action != `"Echo"` {
		t.Errorf("SOAPAction without namespace = %s", action)
	}
	if n := len(tr.Snapshot()); n != 3 {
		t.Errorf("three calls recorded %d spans, want 3", n)
	}
}
