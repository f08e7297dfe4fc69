package soap

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"soc/internal/callplane"
	"soc/internal/telemetry"
)

func TestCallParamsRoundTrip(t *testing.T) {
	ts := httptest.NewServer(newEchoServer(t))
	defer ts.Close()
	c := &Client{}
	ctx := context.Background()
	out, err := c.CallParams(ctx, ts.URL, "http://soc.example/echo", "Echo", []Param{{"text", "ping & <pong>"}})
	if err != nil {
		t.Fatalf("CallParams: %v", err)
	}
	if len(out) != 1 || out["echo"] != "ping & <pong>" {
		t.Fatalf("params = %v", out)
	}
	// The map is the caller's: a later call must not reach into it.
	if _, err := c.CallParams(ctx, ts.URL, "http://soc.example/echo", "Echo", []Param{{"text", "other"}}); err != nil {
		t.Fatal(err)
	}
	if out["echo"] != "ping & <pong>" {
		t.Fatalf("held response changed to %v after the next call", out)
	}
	var f *Fault
	if _, err := c.CallParams(ctx, ts.URL, "", "Fail", nil); !errors.As(err, &f) || f.Code != "Client" {
		t.Errorf("err = %v, want Client fault", err)
	}
	if _, err := c.CallParams(ctx, "http://bad host/", "", "Echo", nil); err == nil || !strings.Contains(err.Error(), "building request") {
		t.Errorf("unparsable URL: err = %v", err)
	}
	if _, err := c.CallParams(ctx, ts.URL, "", "Echo", []Param{{"bad name", "x"}}); !errors.Is(err, ErrProtocol) {
		t.Errorf("invalid parameter name: err = %v", err)
	}
}

// TestClientRequestShape pins what a request carries: the two static
// headers, SOAPAction built from namespace and operation, the trace
// context both as transport header and as the envelope's SocTrace
// header entry, and the parameters in the order given.
func TestClientRequestShape(t *testing.T) {
	var action, contentType, transportTrace, envelope string
	srv := NewServer("")
	_ = srv.Declare("Echo")
	echo := serveWith(srv, map[string]func(*Message) ([]Param, error){"Echo": func(*Message) ([]Param, error) { return nil, nil }})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		action, contentType = r.Header.Get("SOAPAction"), r.Header.Get("Content-Type")
		transportTrace = r.Header.Get(telemetry.HeaderName)
		b, _ := io.ReadAll(r.Body)
		envelope = string(b)
		r.Body = io.NopCloser(strings.NewReader(envelope))
		echo.ServeHTTP(w, r)
	}))
	defer ts.Close()
	tr := telemetry.NewSamplingTracer(8, 1)
	c := &Client{Tracer: tr}
	if _, err := c.CallParams(context.Background(), ts.URL, "urn:x", "Echo", []Param{{"a", "1"}, {"b", "2"}}); err != nil {
		t.Fatal(err)
	}
	if action != `"urn:x#Echo"` || contentType != ContentType {
		t.Errorf("SOAPAction = %s, Content-Type = %q", action, contentType)
	}
	spans := tr.Snapshot()
	if len(spans) != 1 || spans[0].Name != "Echo" {
		t.Fatalf("spans = %+v", spans)
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
	// No namespace: the action is the bare operation.
	if _, err := c.CallParams(context.Background(), ts.URL, "", "Echo", nil); err != nil {
		t.Fatal(err)
	}
	if action != `"Echo"` {
		t.Errorf("SOAPAction without namespace = %s", action)
	}
}

// earlyTransport answers before it has read the request body, like an
// http.Transport whose peer responds early: Do returns while the body is
// still to be written. It keeps each body for the test to drain later.
type earlyTransport struct {
	held []io.ReadCloser
}

func (t *earlyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.held = append(t.held, req.Body)
	env, err := Encode(Message{Operation: "EchoResponse", Params: map[string]string{"echo": "early"}})
	if err != nil {
		return nil, err
	}
	return &http.Response{
		Status: "200 OK", StatusCode: http.StatusOK, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{"Content-Type": []string{ContentType}},
		Body:   io.NopCloser(strings.NewReader(string(env))), Request: req,
	}, nil
}

// TestRequestBodyOutlivesDo is the regression test for the buffer the
// client used to put back right after Do: every body a transport is still
// holding must read back as the envelope of its own call, however many
// calls have borrowed from the pool since, and give the buffer up only at
// Close.
func TestRequestBodyOutlivesDo(t *testing.T) {
	rt := &earlyTransport{}
	c := &Client{HTTPClient: &http.Client{Transport: rt}}
	const calls = 16
	for i := 0; i < calls; i++ {
		marker := fmt.Sprintf("call-%02d-%s", i, strings.Repeat("x", 40*i))
		out, err := c.CallParams(context.Background(), "http://early.test/soap", "urn:x", "Echo", []Param{{"text", marker}})
		if err != nil || out["echo"] != "early" {
			t.Fatalf("call %d: %v, %v", i, out, err)
		}
	}
	for i, body := range rt.held {
		got, err := io.ReadAll(body)
		if err != nil {
			t.Fatal(err)
		}
		marker := fmt.Sprintf("<text>call-%02d-%s</text>", i, strings.Repeat("x", 40*i))
		if !strings.Contains(string(got), marker) || strings.Count(string(got), "<text>") != 1 {
			t.Errorf("body %d held by the transport reads %q, want its own envelope with %s", i, got, marker)
		}
		if err := body.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// endless is a response body that never ends; n counts what was read.
type endless struct{ n int }

func (e *endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	e.n += len(p)
	return len(p), nil
}

func (e *endless) Close() error { return nil }

// TestClientBoundsTheResponse: the client buffers at most
// callplane.MaxResponse bytes of an answer — it used to read until the
// peer stopped sending — and reports a longer one as a protocol error.
func TestClientBoundsTheResponse(t *testing.T) {
	body := &endless{}
	c := &Client{HTTPClient: &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		_ = r.Body.Close()
		return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: body}, nil
	})}}
	_, err := c.CallParams(context.Background(), "http://endless.test/soap", "urn:x", "Echo", nil)
	if !errors.Is(err, ErrProtocol) || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("err = %v, want ErrProtocol for an oversized envelope", err)
	}
	if body.n > callplane.MaxResponse+1 {
		t.Fatalf("read %d bytes of an endless answer, bound is %d", body.n, callplane.MaxResponse)
	}

	// An envelope of exactly the bound is still an envelope.
	env, err := Encode(Message{Operation: "EchoResponse", Params: map[string]string{"echo": ""}})
	if err != nil {
		t.Fatal(err)
	}
	padded := strings.Replace(string(env), "<echo></echo>", "<echo>"+strings.Repeat("y", callplane.MaxResponse-len(env))+"</echo>", 1)
	if len(padded) != callplane.MaxResponse {
		t.Fatalf("test envelope is %d bytes, want %d: %.200s", len(padded), callplane.MaxResponse, env)
	}
	c = &Client{HTTPClient: &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		_ = r.Body.Close()
		return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(strings.NewReader(padded))}, nil
	})}}
	out, err := c.CallParams(context.Background(), "http://big.test/soap", "urn:x", "Echo", nil)
	if err != nil || len(out["echo"]) != callplane.MaxResponse-len(env) {
		t.Fatalf("an envelope of exactly the bound: %d bytes of echo, %v", len(out["echo"]), err)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
