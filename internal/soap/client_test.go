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

// call sends one untraced request over a fresh route.
func call(ctx context.Context, hc *http.Client, url, namespace, operation string, params []Param) (map[string]string, error) {
	rt, err := NewRoute(url, namespace, operation)
	if err != nil {
		return nil, err
	}
	return rt.Call(ctx, hc, telemetry.CallTrace{}, params)
}

func TestCallParamsRoundTrip(t *testing.T) {
	ts := httptest.NewServer(newEchoServer(t))
	defer ts.Close()
	ctx := context.Background()
	echo, err := NewRoute(ts.URL, "http://soc.example/echo", "Echo")
	if err != nil {
		t.Fatal(err)
	}
	out, err := echo.Call(ctx, ts.Client(), telemetry.CallTrace{}, []Param{{"text", "ping & <pong>"}})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if len(out) != 1 || out["echo"] != "ping & <pong>" {
		t.Fatalf("params = %v", out)
	}
	// The map is the caller's: a later call must not reach into it.
	if _, err := echo.Call(ctx, ts.Client(), telemetry.CallTrace{}, []Param{{"text", "other"}}); err != nil {
		t.Fatal(err)
	}
	if out["echo"] != "ping & <pong>" {
		t.Fatalf("held response changed to %v after the next call", out)
	}
	var f *Fault
	if _, err := call(ctx, ts.Client(), ts.URL, "", "Fail", nil); !errors.As(err, &f) || f.Code != "Client" {
		t.Errorf("err = %v, want Client fault", err)
	}
	if _, err := call(ctx, ts.Client(), "http://bad host/", "", "Echo", nil); err == nil || !strings.Contains(err.Error(), "building request") {
		t.Errorf("unparsable URL: err = %v", err)
	}
	if _, err := call(ctx, ts.Client(), ts.URL, "", "Echo", []Param{{"bad name", "x"}}); !errors.Is(err, ErrProtocol) {
		t.Errorf("invalid parameter name: err = %v", err)
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
// route used to put back right after Do: every body a transport is still
// holding must read back as the envelope of its own call, however many
// calls have borrowed from the pool since, and give the buffer up only at
// Close.
func TestRequestBodyOutlivesDo(t *testing.T) {
	rt := &earlyTransport{}
	hc := &http.Client{Transport: rt}
	echo, err := NewRoute("http://early.test/soap", "urn:x", "Echo")
	if err != nil {
		t.Fatal(err)
	}
	const calls = 16
	for i := 0; i < calls; i++ {
		marker := fmt.Sprintf("call-%02d-%s", i, strings.Repeat("x", 40*i))
		out, err := echo.Call(context.Background(), hc, telemetry.CallTrace{}, []Param{{"text", marker}})
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

// TestClientBoundsTheResponse: a route buffers at most
// callplane.MaxResponse bytes of an answer — it used to read until the
// peer stopped sending — and reports a longer one as a protocol error.
func TestClientBoundsTheResponse(t *testing.T) {
	body := &endless{}
	hc := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		_ = r.Body.Close()
		return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: body}, nil
	})}
	_, err := call(context.Background(), hc, "http://endless.test/soap", "urn:x", "Echo", nil)
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
	hc = &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		_ = r.Body.Close()
		return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(strings.NewReader(padded))}, nil
	})}
	out, err := call(context.Background(), hc, "http://big.test/soap", "urn:x", "Echo", nil)
	if err != nil || len(out["echo"]) != callplane.MaxResponse-len(env) {
		t.Fatalf("an envelope of exactly the bound: %d bytes of echo, %v", len(out["echo"]), err)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
