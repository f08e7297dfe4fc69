// Package host exposes soc/internal/core services over the two standard
// protocol bindings the courses teach — SOAP (document/literal, with a
// generated WSDL) and REST (JSON or XML) — from a single mount call, and
// provides the matching client. One Host plays the role of the ASU
// repository's service provider: many services, uniform URLs:
//
//	GET  /services                      list hosted services
//	GET  /services/{name}               service description (JSON/XML)
//	GET  /services/{name}?wsdl          WSDL 1.1 document
//	POST /services/{name}/soap          SOAP endpoint
//	POST /services/{name}/invoke/{op}   REST invocation (JSON body)
//	GET  /services/{name}/invoke/{op}   REST invocation (query params)
package host

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"soc/internal/callplane"
	"soc/internal/core"
	"soc/internal/rest"
	"soc/internal/soap"
	"soc/internal/telemetry"
	"soc/internal/wsdl"
)

// ErrMount reports an invalid mount.
var ErrMount = errors.New("host: invalid mount")

// mounted is one service's precompiled dispatch table, resolved once at
// Mount time: the SOAP endpoint, and the per-operation metric keys so the
// hot path never concatenates "service.op" per request.
type mounted struct {
	svc        *core.Service
	soapSrv    *soap.Server
	metricKeys map[string]string // op name → "service.op"
	idempotent map[string]bool   // op name → declared Idempotent (the cacheable ones)
}

// metricKey returns the precomputed key, falling back to concatenation
// for unknown operations (which fail in Invoke anyway).
func (m *mounted) metricKey(op string) string {
	if k, ok := m.metricKeys[op]; ok {
		return k
	}
	return m.svc.Name + "." + op
}

// valuesPool recycles the argument maps built from transport parameters.
// Invoke never retains its args map (coercion copies into a fresh map),
// so the maps can be cleared and reused across requests.
var valuesPool = sync.Pool{New: func() any { return core.Values{} }}

func acquireValues() core.Values { return valuesPool.Get().(core.Values) }

func releaseValues(v core.Values) {
	clear(v)
	valuesPool.Put(v)
}

// tracerCapacity is the per-host span ring size: enough to hold a chaos
// run's worth of dispatches without unbounded growth.
const tracerCapacity = 512

// Host serves a set of core services over SOAP and REST. Every dispatch
// — either binding — runs under a server span recorded in the host's
// tracer ring (GET /tracez) and folds into the shared instrument set
// (GET /metricz, GET /services/{name}/stats).
type Host struct {
	// mu guards mounts: Mount takes the write lock, every lookup the
	// read lock.
	mu     sync.RWMutex
	mounts map[string]*mounted
	// draining flips the healthz verdict to 503 while the host empties
	// out ahead of a scale-down; every other route keeps serving.
	draining atomic.Bool
	router   *rest.Router
	instr    *telemetry.Metrics
	tracer   *telemetry.Tracer
	// BaseURL, when set, is used as the advertised endpoint prefix in
	// generated WSDL (e.g. "http://host:port"). Unset hosts advertise
	// a relative endpoint.
	BaseURL string
}

// New returns an empty host.
func New() *Host {
	h := &Host{
		mounts: make(map[string]*mounted),
		router: rest.NewRouter(),
		instr:  telemetry.NewMetrics(),
		tracer: telemetry.NewTracer(tracerCapacity),
	}
	h.router.Use(rest.Recovery())
	must := func(err error) {
		if err != nil {
			panic(err) // static routes; failure is a programming bug
		}
	}
	// Invocation routes first: the router scans same-method routes in
	// registration order, and every call pays for the routes ahead of its
	// own. The patterns are pairwise disjoint, so ordering only affects
	// scan cost, never which handler wins.
	must(h.router.GET("/services/{name}/invoke/{op}", h.handleInvoke))
	must(h.router.POST("/services/{name}/invoke/{op}", h.handleInvoke))
	must(h.router.POST("/services/{name}/soap", h.handleSOAP))
	must(h.router.GET("/services/{name}/stats", h.handleStats))
	must(h.router.GET("/services/{name}", h.handleDescribe))
	must(h.router.GET("/services", h.handleList))
	must(h.router.GET("/healthz", h.handleHealthz))
	must(h.router.GET("/tracez", h.handleTracez))
	must(h.router.GET("/metricz", h.handleMetricz))
	return h
}

// Use appends middleware to the host's router (applied to every route,
// first registered outermost) — the hook that lets a chaos harness wrap
// request handling with fault injection, or deployments add logging,
// auth and rate limiting.
func (h *Host) Use(mw ...rest.Middleware) { h.router.Use(mw...) }

// Mount adds a service to the host.
func (h *Host) Mount(svc *core.Service) error {
	if svc == nil {
		return fmt.Errorf("%w: nil service", ErrMount)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.mounts[svc.Name]; dup {
		return fmt.Errorf("%w: duplicate service %q", ErrMount, svc.Name)
	}
	m := &mounted{
		svc:        svc,
		soapSrv:    soap.NewServer(svc.Namespace),
		metricKeys: make(map[string]string, len(svc.Operations())),
		idempotent: make(map[string]bool, len(svc.Operations())),
	}
	for _, op := range svc.Operations() {
		opName := op.Name
		m.metricKeys[opName] = svc.Name + "." + opName // resolved once, not per request
		m.idempotent[opName] = op.Idempotent
		err := m.soapSrv.Handle(opName, func(ctx context.Context, req soap.Message) (soap.Message, error) {
			args := acquireValues()
			defer releaseValues(args)
			for k, v := range req.Params {
				args[k] = v
			}
			// Join the caller's trace: soap.Server has put a valid
			// transport header into the SocTrace entry over the envelope's.
			remote, _ := telemetry.ParseTraceParent(req.Header[telemetry.SOAPHeaderName])
			out, err := h.dispatch(ctx, m, opName, "soap", remote, args)
			if err != nil {
				if errors.Is(err, core.ErrBadRequest) || errors.Is(err, core.ErrNotFound) {
					return soap.Message{}, soap.ClientFault("%v", err)
				}
				return soap.Message{}, soap.ServerFault("%v", err)
			}
			resp := soap.Message{Params: make(map[string]string, len(out))}
			for k, v := range out {
				resp.Params[k] = core.FormatValue(v)
			}
			return resp, nil
		})
		if err != nil {
			return err
		}
	}
	h.mounts[svc.Name] = m
	return nil
}

// MustMount is Mount panicking on error.
func (h *Host) MustMount(svc *core.Service) {
	if err := h.Mount(svc); err != nil {
		panic(err)
	}
}

// dispatch is the one observed invocation both bindings end in: a server
// span joined to the caller's trace (remote, else ctx's active span),
// annotated with the binding and a response-cache miss, and the handler's
// time and outcome folded into the instrument set. The transport's
// request context flows through, so client cancellation reaches the
// handler.
func (h *Host) dispatch(ctx context.Context, m *mounted, op, binding string, remote telemetry.SpanContext, args core.Values) (core.Values, error) {
	metricKey := m.metricKey(op)
	sp, spanCtx := h.tracer.StartSpanRemote(ctx, telemetry.KindServer, metricKey, remote)
	sp.Annotate("binding", binding)
	if telemetry.IsCacheMiss(ctx) {
		sp.Annotate("respcache", "miss")
	}
	start := time.Now()
	out, err := m.svc.Invoke(spanCtx, op, args)
	h.instr.Record(metricKey, time.Since(start), err != nil)
	sp.EndErr(err)
	return out, err
}

// Service returns a mounted service by name.
func (h *Host) Service(name string) (*core.Service, bool) {
	m, ok := h.mount(name)
	if !ok {
		return nil, false
	}
	return m.svc, true
}

// mount returns the precompiled dispatch table for a service.
func (h *Host) mount(name string) (*mounted, bool) {
	h.mu.RLock()
	m, ok := h.mounts[name]
	h.mu.RUnlock()
	return m, ok
}

// Names lists mounted service names, sorted.
func (h *Host) Names() []string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return mountNames(h.mounts)
}

// ServeHTTP implements http.Handler.
func (h *Host) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.router.ServeHTTP(w, r)
}

// serviceSummary is the wire form of a service listing entry.
type serviceSummary struct {
	Name      string `json:"name" xml:"name"`
	Namespace string `json:"namespace" xml:"namespace"`
	Doc       string `json:"doc,omitempty" xml:"doc,omitempty"`
	Category  string `json:"category,omitempty" xml:"category,omitempty"`
}

type paramDesc struct {
	Name     string `json:"name" xml:"name"`
	Type     string `json:"type" xml:"type"`
	Optional bool   `json:"optional,omitempty" xml:"optional,omitempty"`
	Doc      string `json:"doc,omitempty" xml:"doc,omitempty"`
}

type opDesc struct {
	Name   string      `json:"name" xml:"name"`
	Doc    string      `json:"doc,omitempty" xml:"doc,omitempty"`
	Input  []paramDesc `json:"input" xml:"input>param"`
	Output []paramDesc `json:"output" xml:"output>param"`
}

type serviceDesc struct {
	serviceSummary
	Endpoints map[string]string `json:"endpoints" xml:"-"`
	Ops       []opDesc          `json:"operations" xml:"operations>operation"`
}

func (h *Host) handleList(w http.ResponseWriter, r *http.Request, _ rest.Params) {
	h.mu.RLock()
	out := make([]serviceSummary, 0, len(h.mounts))
	for _, name := range mountNames(h.mounts) {
		s := h.mounts[name].svc
		out = append(out, serviceSummary{Name: s.Name, Namespace: s.Namespace, Doc: s.Doc, Category: s.Category})
	}
	h.mu.RUnlock()
	rest.WriteResponse(w, r, http.StatusOK, out)
}

func mountNames(mounts map[string]*mounted) []string {
	out := make([]string, 0, len(mounts))
	for n := range mounts {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (h *Host) handleDescribe(w http.ResponseWriter, r *http.Request, p rest.Params) {
	svc, ok := h.Service(p["name"])
	if !ok {
		rest.WriteError(w, r, http.StatusNotFound, "no service %q", p["name"])
		return
	}
	if _, wantWSDL := r.URL.Query()["wsdl"]; wantWSDL {
		endpoint := h.BaseURL + "/services/" + svc.Name + "/soap"
		doc, err := wsdl.Generate(svc, endpoint)
		if err != nil {
			rest.WriteError(w, r, http.StatusInternalServerError, "wsdl generation: %v", err)
			return
		}
		w.Header().Set("Content-Type", "text/xml; charset=utf-8")
		_, _ = w.Write(doc)
		return
	}
	desc := serviceDesc{
		serviceSummary: serviceSummary{Name: svc.Name, Namespace: svc.Namespace, Doc: svc.Doc, Category: svc.Category},
		Endpoints: map[string]string{
			"soap": h.BaseURL + "/services/" + svc.Name + "/soap",
			"rest": h.BaseURL + "/services/" + svc.Name + "/invoke",
			"wsdl": h.BaseURL + "/services/" + svc.Name + "?wsdl",
		},
	}
	for _, op := range svc.Operations() {
		desc.Ops = append(desc.Ops, opDesc{
			Name:   op.Name,
			Doc:    op.Doc,
			Input:  toParamDescs(op.Input),
			Output: toParamDescs(op.Output),
		})
	}
	rest.WriteResponse(w, r, http.StatusOK, desc)
}

func toParamDescs(ps []core.Param) []paramDesc {
	out := make([]paramDesc, len(ps))
	for i, p := range ps {
		out[i] = paramDesc{Name: p.Name, Type: string(p.Type), Optional: p.Optional, Doc: p.Doc}
	}
	return out
}

// serviceHealth is one service's entry in the healthz report.
type serviceHealth struct {
	Status     string `json:"status"`
	Operations int    `json:"operations"`
	Calls      uint64 `json:"calls"`
	Errors     uint64 `json:"errors"`
}

// healthReport is the GET /healthz document.
type healthReport struct {
	Status   string                   `json:"status"`
	Services map[string]serviceHealth `json:"services"`
}

// SetDraining flips the host's draining flag. A draining host keeps
// serving every route — in-flight and retried work must still land — but
// its health probe answers 503 "draining", so balancers and health
// checkers stop steering new traffic at it while it empties out.
func (h *Host) SetDraining(v bool) { h.draining.Store(v) }

// Draining reports whether SetDraining marked the host as draining.
func (h *Host) Draining() bool { return h.draining.Load() }

// handleHealthz answers 200 with per-service status — the probe target
// of reliability.HealthChecker. A service is "degraded" once a majority
// of a meaningful sample of its calls failed; the host itself is "ok"
// whenever it can answer at all (a dead host can't) — unless it is
// draining, which probes see as 503 so no new traffic arrives.
func (h *Host) handleHealthz(w http.ResponseWriter, r *http.Request, _ rest.Params) {
	stats := h.instr.Snapshot()
	report := healthReport{Status: "ok"}
	status := http.StatusOK
	if h.Draining() {
		report.Status, status = "draining", http.StatusServiceUnavailable
	}
	h.mu.RLock()
	report.Services = make(map[string]serviceHealth, len(h.mounts))
	for name, m := range h.mounts {
		svc := m.svc
		sh := serviceHealth{Status: "ok", Operations: len(svc.Operations())}
		for _, op := range svc.Operations() {
			if st, ok := stats[m.metricKey(op.Name)]; ok {
				sh.Calls += st.Calls
				sh.Errors += st.Errors
			}
		}
		if sh.Calls >= 10 && sh.Errors*2 > sh.Calls {
			sh.Status = "degraded"
		}
		report.Services[name] = sh
	}
	h.mu.RUnlock()
	rest.WriteResponse(w, r, status, report)
}

// statsEntry is the wire form of one operation's statistics.
type statsEntry struct {
	Operation string `json:"operation"`
	Calls     uint64 `json:"calls"`
	Errors    uint64 `json:"errors"`
	MeanNanos int64  `json:"meanNanos"`
}

func (h *Host) handleStats(w http.ResponseWriter, r *http.Request, p rest.Params) {
	m, ok := h.mount(p["name"])
	if !ok {
		rest.WriteError(w, r, http.StatusNotFound, "no service %q", p["name"])
		return
	}
	svc := m.svc
	all := h.instr.Snapshot()
	out := []statsEntry{}
	for _, op := range svc.Operations() {
		if st, ok := all[m.metricKey(op.Name)]; ok {
			out = append(out, statsEntry{
				Operation: op.Name, Calls: st.Calls, Errors: st.Errors,
				MeanNanos: int64(st.MeanTime()),
			})
		}
	}
	rest.WriteResponse(w, r, http.StatusOK, out)
}

func (h *Host) handleSOAP(w http.ResponseWriter, r *http.Request, p rest.Params) {
	m, ok := h.mount(p["name"])
	if !ok {
		rest.WriteError(w, r, http.StatusNotFound, "no service %q", p["name"])
		return
	}
	m.soapSrv.ServeHTTP(w, r)
}

func (h *Host) handleInvoke(w http.ResponseWriter, r *http.Request, p rest.Params) {
	m, ok := h.mount(p["name"])
	if !ok {
		rest.WriteError(w, r, http.StatusNotFound, "no service %q", p["name"])
		return
	}
	args := acquireValues()
	defer releaseValues(args)
	if r.Method == http.MethodPost {
		if err := readInvokeBody(r, args); err != nil {
			rest.WriteError(w, r, http.StatusBadRequest, "body: %v", err)
			return
		}
	} else {
		for k, vs := range r.URL.Query() {
			if k == "format" {
				continue
			}
			if len(vs) > 0 {
				args[k] = vs[0]
			}
		}
	}
	remote, _ := telemetry.FromHTTPHeader(r.Header)
	out, err := h.dispatch(r.Context(), m, p["op"], "rest", remote, args)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, core.ErrBadRequest) {
			status = http.StatusBadRequest
		} else if errors.Is(err, core.ErrNotFound) {
			status = http.StatusNotFound
		}
		rest.WriteError(w, r, status, "%v", err)
		return
	}
	// XML marshaling of map types is unsupported by encoding/xml, so
	// force JSON output for invocation results unless explicitly
	// negotiated; wrap XML results in a simple element form.
	if rest.Negotiate(r) == "xml" {
		w.Header().Set("Content-Type", "application/xml; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, valuesToXML(p["op"]+"Response", out))
		return
	}
	writeInvokeResult(w, r, out)
}

// maxInvokeBody bounds a POST invoke body.
const maxInvokeBody = 1 << 20

// readInvokeBody decodes the JSON object posted to an invoke route into
// args, through a pooled buffer. Any other body is an error: no JSON, a
// top-level value that is neither an object nor null, anything but
// whitespace after it, more than maxInvokeBody bytes.
func readInvokeBody(r *http.Request, args core.Values) error {
	body := callplane.GetBuffer()
	defer body.Release()
	if err := body.Fill(r.Body, maxInvokeBody+1); err != nil {
		return err
	}
	if len(body.B) > maxInvokeBody {
		return fmt.Errorf("larger than %d bytes", maxInvokeBody)
	}
	_, err := decodeJSONObjectInto(args, body.B)
	return err
}

// jsonContentType is shared by every result written: full (len == cap),
// so a middleware appending to it reallocates instead of mutating it.
var jsonContentType = []string{"application/json; charset=utf-8"}

// writeInvokeResult writes an invocation result as JSON, byte for byte
// what rest.WriteResponse's indenting json.Encoder writes for it (sorted
// keys, two-space indent, HTML escapes, trailing newline), encoded in a
// pooled buffer.
func writeInvokeResult(w http.ResponseWriter, r *http.Request, out core.Values) {
	buf := callplane.GetBuffer()
	defer buf.Release()
	var err error
	if buf.B, err = appendJSONObject(buf.B, out); err != nil {
		rest.WriteError(w, r, http.StatusInternalServerError, "encoding result: %v", err)
		return
	}
	compact := len(buf.B)
	buf.B = append(appendJSONIndent(buf.B, buf.B[:compact]), '\n')
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.B[compact:])
}

func valuesToXML(root string, v core.Values) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<%s>", root)
	for _, k := range v.Keys() {
		fmt.Fprintf(&b, "<%s>%s</%s>", k, xmlEscape(core.FormatValue(v[k])), k)
	}
	fmt.Fprintf(&b, "</%s>", root)
	return b.String()
}

var xmlReplacer = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

func xmlEscape(s string) string {
	return xmlReplacer.Replace(s)
}
