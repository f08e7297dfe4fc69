package soap

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"soc/internal/callplane"
	"soc/internal/telemetry"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	req := Message{
		Operation:  "Encrypt",
		Namespace:  "http://soc.example/enc",
		Params:     map[string]string{"plaintext": "hello <world>", "key": "k1"},
		ParamOrder: []string{"plaintext", "key"},
		Header:     map[string]string{"token": "abc"},
	}
	data, err := Encode(req)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := DecodeBytes(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Operation != "Encrypt" || got.Namespace != "http://soc.example/enc" {
		t.Errorf("op/ns = %q/%q", got.Operation, got.Namespace)
	}
	if got.Params["plaintext"] != "hello <world>" || got.Params["key"] != "k1" {
		t.Errorf("params = %v", got.Params)
	}
	if len(got.ParamOrder) != 2 || got.ParamOrder[0] != "plaintext" {
		t.Errorf("order = %v", got.ParamOrder)
	}
	if got.Header["token"] != "abc" {
		t.Errorf("header = %v", got.Header)
	}
}

func TestEncodeValidation(t *testing.T) {
	if _, err := Encode(Message{}); err == nil {
		t.Error("empty operation accepted")
	}
	if _, err := Encode(Message{Operation: "Op", ParamOrder: []string{"missing"}}); err == nil {
		t.Error("ParamOrder with missing param accepted")
	}
}

func TestDecodeFault(t *testing.T) {
	data, err := EncodeFault(&Fault{Code: "Client", String: "bad input", Detail: "d"})
	if err != nil {
		t.Fatalf("EncodeFault: %v", err)
	}
	_, err = DecodeBytes(data)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("Decode returned %v, want *Fault", err)
	}
	if f.Code != "Client" || f.String != "bad input" || f.Detail != "d" {
		t.Errorf("fault = %+v", f)
	}
}

func TestDecodeMalformed(t *testing.T) {
	cases := []string{
		`not xml`,
		`<notenvelope/>`,
		`<soap:Envelope xmlns:soap="` + EnvelopeNS + `"/>`,
		`<soap:Envelope xmlns:soap="` + EnvelopeNS + `"><soap:Body/></soap:Envelope>`,
		`<soap:Envelope xmlns:soap="` + EnvelopeNS + `"><soap:Body><a/><b/></soap:Body></soap:Envelope>`,
	}
	for _, c := range cases {
		if _, err := DecodeBytes([]byte(c)); err == nil {
			t.Errorf("DecodeBytes(%q) succeeded", c)
		}
	}
}

func TestEncodeFaultNil(t *testing.T) {
	if _, err := EncodeFault(nil); err == nil {
		t.Error("nil fault accepted")
	}
}

// serveWith is the endpoint a host makes of s: each request read once
// and answered by the handler of its operation, a handler's error
// written as its fault.
func serveWith(s *Server, handlers map[string]func(*Message) ([]Param, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req Message
		body := callplane.GetBuffer()
		defer body.Release()
		if !s.ReadRequest(w, r, body, &req) {
			return
		}
		out, err := handlers[req.Operation](&req)
		var f *Fault
		if err != nil && !errors.As(err, &f) {
			f = ServerFault("%v", err)
		}
		if f != nil {
			WriteFault(w, f)
			return
		}
		s.WriteAnswer(w, req.Operation, out)
	})
}

func newEchoServer(t *testing.T) http.Handler {
	t.Helper()
	s := NewServer("http://soc.example/echo")
	handlers := map[string]func(*Message) ([]Param, error){
		"Echo":  func(req *Message) ([]Param, error) { return []Param{{"echo", req.Params["text"]}}, nil },
		"Fail":  func(*Message) ([]Param, error) { return nil, ClientFault("you asked for it") },
		"Crash": func(*Message) ([]Param, error) { return nil, errors.New("internal breakage") },
		// An answer that is not an envelope: a parameter name that is not
		// an element name.
		"Unencodable": func(*Message) ([]Param, error) { return []Param{{"not a name", "x"}}, nil },
	}
	for op := range handlers {
		if err := s.Declare(op, "text"); err != nil {
			t.Fatal(err)
		}
	}
	return serveWith(s, handlers)
}

func TestServerClientRoundTrip(t *testing.T) {
	ts := httptest.NewServer(newEchoServer(t))
	defer ts.Close()
	out, err := call(context.Background(), ts.Client(), ts.URL, "http://soc.example/echo", "Echo", []Param{{"text", "ping"}})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if out["echo"] != "ping" {
		t.Errorf("echo = %q", out["echo"])
	}
}

func TestServerFaultPropagation(t *testing.T) {
	ts := httptest.NewServer(newEchoServer(t))
	defer ts.Close()
	_, err := call(context.Background(), ts.Client(), ts.URL, "", "Fail", nil)
	var f *Fault
	if !errors.As(err, &f) || f.Code != "Client" {
		t.Errorf("err = %v, want Client fault", err)
	}
	_, err = call(context.Background(), ts.Client(), ts.URL, "", "Crash", nil)
	if !errors.As(err, &f) || f.Code != "Server" || !strings.Contains(f.String, "internal breakage") {
		t.Errorf("err = %v, want Server fault", err)
	}
}

func TestServerUnknownOperation(t *testing.T) {
	ts := httptest.NewServer(newEchoServer(t))
	defer ts.Close()
	_, err := call(context.Background(), ts.Client(), ts.URL, "", "Nope", nil)
	var f *Fault
	if !errors.As(err, &f) || !strings.Contains(f.String, "unknown operation") {
		t.Errorf("err = %v", err)
	}
}

func TestServerRejectsGet(t *testing.T) {
	ts := httptest.NewServer(newEchoServer(t))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestServerSOAPActionMismatch(t *testing.T) {
	ts := httptest.NewServer(newEchoServer(t))
	defer ts.Close()
	payload, _ := Encode(Message{Operation: "Echo", Params: map[string]string{"text": "x"}})
	req, _ := http.NewRequest(http.MethodPost, ts.URL, bytes.NewReader(payload))
	req.Header.Set("Content-Type", ContentType)
	req.Header.Set("SOAPAction", `"http://soc.example/echo#Different"`)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

// TestServerTransportTraceParentWins: a request carrying an X-Soc-Trace
// header, valid or not, has its envelope's SocTrace entry checked but not
// decoded, so its reader takes the trace from the transport; without one
// the entry is read as sent.
func TestServerTransportTraceParentWins(t *testing.T) {
	const (
		envelope  = "00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01"
		transport = "00-4bf92f3577b34da6a3ce929d0e0e4736-b7ad6b7169203331-01"
	)
	var seen string
	s := NewServer("http://soc.example/echo")
	if err := s.Declare("Echo"); err != nil {
		t.Fatal(err)
	}
	h := serveWith(s, map[string]func(*Message) ([]Param, error){"Echo": func(req *Message) ([]Param, error) {
		seen = req.Header[telemetry.SOAPHeaderName]
		return nil, nil
	}})
	payload, err := Encode(Message{Operation: "Echo", Header: map[string]string{telemetry.SOAPHeaderName: envelope}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ header, want string }{
		{transport, ""},
		{"", envelope},
		{"00-not-a-trace-parent-01", ""},
	} {
		r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(payload))
		if tc.header != "" {
			r.Header.Set(telemetry.HeaderName, tc.header)
		}
		w := httptest.NewRecorder()
		seen = "unread"
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK || seen != tc.want {
			t.Errorf("X-Soc-Trace %q: status %d, handler saw SocTrace %q, want %q", tc.header, w.Code, seen, tc.want)
		}
	}
}

// TestServerWritesThroughEncodeTo: the answer's body is exactly the
// envelope Encode renders for it, and an answer that cannot be encoded
// becomes a 500 Server fault with nothing written before it.
func TestServerWritesThroughEncodeTo(t *testing.T) {
	s := newEchoServer(t)
	post := func(op string) *httptest.ResponseRecorder {
		env, err := Encode(Message{Operation: op, Params: map[string]string{"text": "a<b & c"}})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(env)))
		return rec
	}

	rec := post("Echo")
	want, err := Encode(Message{Operation: "EchoResponse", Namespace: "http://soc.example/echo",
		Params: map[string]string{"echo": "a<b & c"}})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != ContentType || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("Echo: %d %q\n%s\nwant\n%s", rec.Code, rec.Header().Get("Content-Type"), rec.Body.Bytes(), want)
	}

	rec = post("Unencodable")
	if rec.Code != http.StatusInternalServerError || rec.Header().Get("Content-Type") != ContentType {
		t.Fatalf("Unencodable: %d %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	var f *Fault
	if _, err := DecodeBytes(rec.Body.Bytes()); !errors.As(err, &f) || f.Code != "Server" ||
		!strings.Contains(f.String, "response encoding") {
		t.Fatalf("Unencodable body is not just the encoding fault: %v\n%s", err, rec.Body.Bytes())
	}
}

// TestServerHandleValidation: an operation is declared once, with a name,
// and its parameter names are lent to the decode.
func TestServerHandleValidation(t *testing.T) {
	s := NewServer("ns")
	if err := s.Declare(""); err == nil {
		t.Error("empty op accepted")
	}
	if err := s.Declare("X", "a", "b"); err != nil {
		t.Errorf("valid declaration rejected: %v", err)
	}
	if err := s.Declare("X"); err == nil {
		t.Error("duplicate declaration accepted")
	}
	if len(s.respNames) != 1 || s.respNames["X"] != "XResponse" {
		t.Errorf("ops = %v", s.respNames)
	}
	if want := map[string]string{"X": "X", "a": "a", "b": "b"}; !reflect.DeepEqual(s.known, want) {
		t.Errorf("known names = %v, want %v", s.known, want)
	}
}

func TestClientTransportError(t *testing.T) {
	if _, err := call(context.Background(), http.DefaultClient, "http://127.0.0.1:1/closed", "", "Op", nil); err == nil {
		t.Error("transport error not reported")
	}
}

// TestClientCallContextCancel proves cancellation aborts the in-flight
// HTTP request itself: the stalled server handler observes its request
// context dying, so no goroutine is left holding a live connection.
func TestClientCallContextCancel(t *testing.T) {
	released := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so net/http starts its background read —
		// that's what lets the server notice the client went away.
		_, _ = io.Copy(io.Discard, r.Body)
		<-r.Context().Done() // stall until the client gives up
		close(released)
	}))
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := call(ctx, ts.Client(), ts.URL, "", "Slow", nil)
	if err == nil {
		t.Fatal("cancelled call succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("server handler never saw the request die: request not cancelled")
	}
}

func TestFaultHelpers(t *testing.T) {
	f := ClientFault("bad %d", 7)
	if f.Code != "Client" || f.String != "bad 7" {
		t.Errorf("ClientFault = %+v", f)
	}
	if !strings.Contains(f.Error(), "Client") {
		t.Errorf("Error() = %q", f.Error())
	}
	if ServerFault("x").Code != "Server" {
		t.Error("ServerFault code wrong")
	}
}

// A decode lent names reads the same message as one that copies: a
// lent string is used only where the envelope spells it exactly, and an
// xmlns written with a reference or a line end is decoded, not lent.
func TestDecodeWithLentNames(t *testing.T) {
	known := &names{known: map[string]string{"Echo": "Echo", "a&amp;b": "a&amp;b", "text": "text"}, ns: "urn:a&amp;b"}
	for _, env := range []string{
		`<Envelope><Body><Echo xmlns="urn:echo"><text>hi</text></Echo></Body></Envelope>`,
		`<Envelope><Body><Echo><text>a</text><other>b</other><text>c</text></Echo></Body></Envelope>`,
		`<Envelope><Body><Other xmlns="urn:a&amp;b"><text>hi</text></Other></Body></Envelope>`,
		"<Envelope><Body><Echo xmlns=\"urn:a\nb\"/></Body></Envelope>",
	} {
		want, err := DecodeBytes([]byte(env))
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeBytes([]byte(env), known)
		if err != nil {
			t.Fatal(err)
		}
		if got.Operation != want.Operation || got.Namespace != want.Namespace || !reflect.DeepEqual(got.Params, want.Params) ||
			!reflect.DeepEqual(got.ParamOrder, want.ParamOrder) {
			t.Errorf("%s: lent names decoded %+v, copies %+v", env, got, want)
		}
	}
}
