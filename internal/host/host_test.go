package host

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"soc/internal/core"
	"soc/internal/xmlkit"
)

func calcService(t *testing.T) *core.Service {
	t.Helper()
	svc, err := core.NewService("Calc", "http://soc.example/calc", "arithmetic")
	if err != nil {
		t.Fatal(err)
	}
	svc.MustAddOperation(core.Operation{
		Name:   "Add",
		Input:  []core.Param{{Name: "a", Type: core.Int}, {Name: "b", Type: core.Int}},
		Output: []core.Param{{Name: "sum", Type: core.Int}},
		Handler: func(_ context.Context, in core.Values) (core.Values, error) {
			return core.Values{"sum": in.Int("a") + in.Int("b")}, nil
		},
	})
	svc.MustAddOperation(core.Operation{
		Name:   "Div",
		Input:  []core.Param{{Name: "a", Type: core.Float}, {Name: "b", Type: core.Float}},
		Output: []core.Param{{Name: "q", Type: core.Float}},
		Handler: func(_ context.Context, in core.Values) (core.Values, error) {
			if in.Float("b") == 0 {
				return nil, errors.New("division by zero")
			}
			return core.Values{"q": in.Float("a") / in.Float("b")}, nil
		},
	})
	return svc
}

func newTestHost(t *testing.T) (*Host, *httptest.Server) {
	t.Helper()
	h := New()
	h.MustMount(calcService(t))
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	h.BaseURL = ts.URL
	return h, ts
}

func TestMountValidation(t *testing.T) {
	h := New()
	if err := h.Mount(nil); err == nil {
		t.Error("nil service accepted")
	}
	svc := calcService(t)
	if err := h.Mount(svc); err != nil {
		t.Fatal(err)
	}
	if err := h.Mount(svc); err == nil {
		t.Error("duplicate mount accepted")
	}
	if _, ok := h.Service("Calc"); !ok {
		t.Error("Service lookup failed")
	}
	if names := h.Names(); len(names) != 1 || names[0] != "Calc" {
		t.Errorf("Names = %v", names)
	}
}

func TestRESTInvokePost(t *testing.T) {
	_, ts := newTestHost(t)
	c := NewClient(ts.URL)
	out, err := c.Call(context.Background(), "Calc", "Add", core.Values{"a": 19, "b": 23})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	// JSON numbers decode as float64 on the client side.
	if out.Float("sum") != 42 {
		t.Errorf("sum = %v", out["sum"])
	}
}

func TestRESTInvokeGetQueryParams(t *testing.T) {
	_, ts := newTestHost(t)
	resp, err := http.Get(ts.URL + "/services/Calc/invoke/Add?a=1&b=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"sum": 3`) {
		t.Errorf("GET invoke: %d %s", resp.StatusCode, body)
	}
}

func TestRESTInvokeXML(t *testing.T) {
	_, ts := newTestHost(t)
	req, _ := http.NewRequest("GET", ts.URL+"/services/Calc/invoke/Add?a=1&b=2", nil)
	req.Header.Set("Accept", "application/xml")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "<sum>3</sum>") {
		t.Errorf("xml invoke body = %s", body)
	}
}

// TestRESTInvokeXMLEscapesEveryValue: an XML result is a document
// xmlkit reads back, whatever its values hold — markup characters, a
// carriage return and a control character, which is no XML Char and is
// written as U+FFFD.
func TestRESTInvokeXMLEscapesEveryValue(t *testing.T) {
	svc, err := core.NewService("Raw", "http://soc.example/raw", "returns a hostile string")
	if err != nil {
		t.Fatal(err)
	}
	svc.MustAddOperation(core.Operation{
		Name:   "Get",
		Output: []core.Param{{Name: "v", Type: core.String}},
		Handler: func(context.Context, core.Values) (core.Values, error) {
			return core.Values{"v": "a\x01b\rc<&>"}, nil
		},
	})
	h := New()
	h.MustMount(svc)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/services/Raw/invoke/Get?format=xml", nil))
	doc, err := xmlkit.ParseDocument(w.Body)
	if err != nil {
		t.Fatalf("the XML result does not parse: %v", err)
	}
	if got := doc.Root.ChildText("v"); doc.Root.Name != "GetResponse" || got != "a\uFFFDb\rc<&>" {
		t.Fatalf("read back <%s> with v = %q", doc.Root.Name, got)
	}
}

func TestRESTErrors(t *testing.T) {
	_, ts := newTestHost(t)
	c := NewClient(ts.URL)
	ctx := context.Background()
	if _, err := c.Call(ctx, "Ghost", "Add", nil); !errors.Is(err, ErrRemote) {
		t.Errorf("unknown service: %v", err)
	}
	if _, err := c.Call(ctx, "Calc", "Ghost", nil); !errors.Is(err, ErrRemote) {
		t.Errorf("unknown op: %v", err)
	}
	_, err := c.Call(ctx, "Calc", "Add", core.Values{"a": 1})
	if err == nil || !strings.Contains(err.Error(), "missing parameter") {
		t.Errorf("missing param: %v", err)
	}
	_, err = c.Call(ctx, "Calc", "Div", core.Values{"a": 1, "b": 0})
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("handler error: %v", err)
	}
}

func TestSOAPInvoke(t *testing.T) {
	_, ts := newTestHost(t)
	c := NewClient(ts.URL)
	out, err := c.CallSOAP(context.Background(), "Calc", "Add", "http://soc.example/calc", core.Values{"a": 40, "b": 2})
	if err != nil {
		t.Fatalf("CallSOAP: %v", err)
	}
	if out["sum"] != "42" {
		t.Errorf("sum = %q", out["sum"])
	}
}

func TestSOAPFaults(t *testing.T) {
	_, ts := newTestHost(t)
	c := NewClient(ts.URL)
	_, err := c.CallSOAP(context.Background(), "Calc", "Add", "", core.Values{"a": "junk", "b": 2})
	if err == nil || !strings.Contains(err.Error(), "fault") {
		t.Errorf("coercion fault: %v", err)
	}
	_, err = c.CallSOAP(context.Background(), "Calc", "Div", "", core.Values{"a": 1, "b": 0})
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("server fault: %v", err)
	}
}

func TestWSDLEndToEnd(t *testing.T) {
	_, ts := newTestHost(t)
	c := NewClient(ts.URL)
	d, err := c.Describe(context.Background(), "Calc")
	if err != nil {
		t.Fatalf("Describe: %v", err)
	}
	if d.Name != "Calc" || len(d.Ops) != 2 {
		t.Errorf("description = %+v", d)
	}
	if d.Endpoint != ts.URL+"/services/Calc/soap" {
		t.Errorf("endpoint = %q", d.Endpoint)
	}
	// The advertised endpoint must actually answer SOAP calls.
	out, err := c.CallSOAP(context.Background(), "Calc", d.Ops[0].Name, d.Namespace, core.Values{"a": 1, "b": 1})
	if err != nil || out["sum"] != "2" {
		t.Errorf("call via described endpoint: %v %v", out, err)
	}
}

func TestListServices(t *testing.T) {
	h, ts := newTestHost(t)
	second, _ := core.NewService("Echo", "http://soc.example/echo", "")
	second.MustAddOperation(core.Operation{
		Name:   "Echo",
		Input:  []core.Param{{Name: "text", Type: core.String}},
		Output: []core.Param{{Name: "echo", Type: core.String}},
		Handler: func(_ context.Context, in core.Values) (core.Values, error) {
			return core.Values{"echo": in.Str("text")}, nil
		},
	})
	h.MustMount(second)
	list, err := listServices(ts.URL)
	if err != nil {
		t.Fatalf("GET /services: %v", err)
	}
	if len(list) != 2 || list[0].Name != "Calc" || list[1].Name != "Echo" {
		t.Errorf("list = %+v", list)
	}
}

func TestDescribeJSON(t *testing.T) {
	_, ts := newTestHost(t)
	resp, err := http.Get(ts.URL + "/services/Calc")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	s := string(body)
	for _, want := range []string{`"name": "Calc"`, `"operations"`, `"soap"`, `"rest"`, `"wsdl"`} {
		if !strings.Contains(s, want) {
			t.Errorf("describe missing %q in %s", want, s)
		}
	}
	resp2, err := http.Get(ts.URL + "/services/Nope")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("describe unknown = %d", resp2.StatusCode)
	}
}

func TestClientContextCancellation(t *testing.T) {
	_, ts := newTestHost(t)
	c := NewClient(ts.URL)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Call(ctx, "Calc", "Add", core.Values{"a": 1, "b": 2}); err == nil {
		t.Error("canceled context accepted")
	}
}

// TestMountDuringInvokeParallel: invocations and listings of a mounted
// service race a writer mounting fresh ones. Each new service answers as
// soon as its Mount returns, and mounting it again still fails.
func TestMountDuringInvokeParallel(t *testing.T) {
	h := New()
	h.MustMount(calcService(t))
	serve := func(path string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			paths := []string{"/services/Calc/invoke/Add?a=1&b=2", "/services", "/healthz"}
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if code := serve(paths[i%len(paths)]); code != http.StatusOK {
					t.Errorf("GET %s: status %d", paths[i%len(paths)], code)
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		svc, err := core.NewService(fmt.Sprintf("Echo%d", i), "http://soc.example/echo", "")
		if err != nil {
			t.Fatal(err)
		}
		svc.MustAddOperation(core.Operation{
			Name:   "Echo",
			Input:  []core.Param{{Name: "text", Type: core.String}},
			Output: []core.Param{{Name: "echo", Type: core.String}},
			Handler: func(_ context.Context, in core.Values) (core.Values, error) {
				return core.Values{"echo": in.Str("text")}, nil
			},
		})
		if err := h.Mount(svc); err != nil {
			t.Fatal(err)
		}
		if code := serve("/services/" + svc.Name + "/invoke/Echo?text=hi"); code != http.StatusOK {
			t.Fatalf("%s right after Mount: status %d", svc.Name, code)
		}
		if err := h.Mount(svc); !errors.Is(err, ErrMount) {
			t.Fatalf("duplicate Mount of %s: %v", svc.Name, err)
		}
	}
	close(done)
	wg.Wait()
	if n := len(h.Names()); n != 51 {
		t.Fatalf("%d services mounted, want 51", n)
	}
}

// serviceInfo is one entry of the GET /services listing.
type serviceInfo struct {
	Name string `json:"name"`
}

// listServices fetches a host's GET /services summaries as JSON.
func listServices(baseURL string) ([]serviceInfo, error) {
	req, err := http.NewRequest(http.MethodGet, baseURL+"/services", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var out []serviceInfo
	return out, json.NewDecoder(resp.Body).Decode(&out)
}
