// Package soap implements the SOAP 1.1 document-style message protocol of
// CSE445 unit 3: envelope encoding and decoding, fault reporting, and the
// HTTP binding (both the server handler and the client), with SOAPAction-
// based operation dispatch.
//
// Messages are document/literal: the body carries a single operation
// element in the service namespace whose children are the named
// parameters. This mirrors what WSDL generation in soc/internal/wsdl
// advertises.
package soap

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"soc/internal/callplane"
	"soc/internal/telemetry"
	"soc/internal/xmlkit"
)

// Namespace constants for SOAP 1.1.
const (
	EnvelopeNS  = "http://schemas.xmlsoap.org/soap/envelope/"
	ContentType = "text/xml; charset=utf-8"
)

// ErrProtocol reports a malformed SOAP message.
var ErrProtocol = errors.New("soap: protocol error")

// Fault is a SOAP fault. It implements error so handlers can return it
// directly and clients can detect it with errors.As.
type Fault struct {
	// Code is the fault code: conventionally "Client" for caller errors
	// and "Server" for service-side failures.
	Code string
	// String is the human-readable fault string.
	String string
	// Detail carries optional application-specific detail.
	Detail string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("soap: fault %s: %s", f.Code, f.String)
}

// ClientFault returns a Client fault (the caller's message was at fault).
func ClientFault(format string, args ...any) *Fault {
	return &Fault{Code: "Client", String: fmt.Sprintf(format, args...)}
}

// ServerFault returns a Server fault (the service failed).
func ServerFault(format string, args ...any) *Fault {
	return &Fault{Code: "Server", String: fmt.Sprintf(format, args...)}
}

// Message is a decoded SOAP request or response body: the operation
// element name and its child parameter values.
type Message struct {
	// Operation is the local name of the body's single child element.
	Operation string
	// Namespace is the operation element's declared namespace URI (from
	// its xmlns attribute), if any.
	Namespace string
	// Params maps parameter element names to their text content, in the
	// order they appeared (ParamOrder preserves it).
	Params map[string]string
	// ParamOrder lists parameter names in document order.
	ParamOrder []string
	// Header holds SOAP header entries (name → text), if present.
	Header map[string]string
}

// ---- pooled buffers and messages (the hot-path allocation discipline;
// see DESIGN.md "Hot-path message plane") ----

// encPool recycles the byte slices the encoder and the transport paths
// build envelopes in. Oversized buffers are dropped rather than pooled so
// one huge message cannot pin memory.
var encPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

const maxPooledBuf = 64 << 10

func getEncBuf() *[]byte { return encPool.Get().(*[]byte) }

func putEncBuf(bp *[]byte) {
	if cap(*bp) > maxPooledBuf {
		return
	}
	*bp = (*bp)[:0]
	encPool.Put(bp)
}

// msgPool recycles decoded request messages inside Server.ServeHTTP. The
// maps are cleared (not reallocated) between requests, so steady-state
// request decoding does not grow the heap.
var msgPool = sync.Pool{New: func() any {
	return &Message{Params: make(map[string]string, 8), Header: make(map[string]string, 2)}
}}

func acquireMessage() *Message { return msgPool.Get().(*Message) }

func releaseMessage(m *Message) {
	m.resetForReuse()
	msgPool.Put(m)
}

// resetForReuse clears the message in place, keeping map and slice
// capacity. Every pooled message passes through here before Put.
func (m *Message) resetForReuse() {
	m.Operation = ""
	m.Namespace = ""
	clear(m.Params)
	clear(m.Header)
	m.ParamOrder = m.ParamOrder[:0]
}

// xmlProlog matches encoding/xml's xml.Header.
const xmlProlog = `<?xml version="1.0" encoding="UTF-8"?>` + "\n"

// validName reports whether s is usable as an element name without
// re-parsing ambiguity. The check is deliberately loose (prefixes pass);
// it exists to stop markup injection through operation or parameter
// names, since values are escaped but names are written literally.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '<', '>', '&', '/', '=', '"', '\'', ' ', '\t', '\r', '\n':
			return false
		}
	}
	return s[0] != '-' && s[0] != '.' && (s[0] < '0' || s[0] > '9')
}

// Param is one named parameter or header entry in its lexical form.
type Param struct{ Name, Value string }

// lists flattens the message for the encoder: header entries sorted by
// name, parameters in ParamOrder (sorted by name without one). The lists
// are appended to the buffers the caller passes, stack arrays on the hot
// paths, so a message of a few entries costs no allocation to order.
func (m Message) lists(hbuf, pbuf []Param) (header, params []Param, err error) {
	header = SortParams(appendParams(hbuf, m.Header))
	if m.ParamOrder == nil {
		return header, SortParams(appendParams(pbuf, m.Params)), nil
	}
	params = pbuf
	for _, name := range m.ParamOrder {
		v, ok := m.Params[name]
		if !ok {
			return nil, nil, fmt.Errorf("%w: ParamOrder names missing param %q", ErrProtocol, name)
		}
		params = append(params, Param{name, v})
	}
	return header, params, nil
}

func appendParams(dst []Param, m map[string]string) []Param {
	for k, v := range m {
		dst = append(dst, Param{k, v})
	}
	return dst
}

// SortParams orders a list by name, in place.
func SortParams(ps []Param) []Param {
	slices.SortFunc(ps, func(a, b Param) int { return strings.Compare(a.Name, b.Name) })
	return ps
}

// appendMessage renders the message's envelope into dst.
func appendMessage(dst []byte, m Message) ([]byte, error) {
	var hbuf [4]Param
	var pbuf [8]Param
	header, params, err := m.lists(hbuf[:0], pbuf[:0])
	if err != nil {
		return dst, err
	}
	return appendEnvelope(dst, m.Namespace, m.Operation, header, params)
}

// appendEnvelope renders an envelope into dst in a single pass: values
// are escaped directly into the output buffer with no intermediate
// escape buffer or DOM materialization.
func appendEnvelope(dst []byte, namespace, operation string, header, params []Param) ([]byte, error) {
	if operation == "" {
		return dst, fmt.Errorf("%w: empty operation", ErrProtocol)
	}
	if !validName(operation) {
		return dst, fmt.Errorf("%w: invalid operation name %q", ErrProtocol, operation)
	}
	dst = append(dst, xmlProlog...)
	dst = append(dst, `<soap:Envelope xmlns:soap="`...)
	dst = append(dst, EnvelopeNS...)
	dst = append(dst, `">`...)
	var err error
	if len(header) > 0 {
		dst = append(dst, "<soap:Header>"...)
		for _, h := range header {
			if dst, err = appendTextElement(dst, h.Name, h.Value); err != nil {
				return dst, err
			}
		}
		dst = append(dst, "</soap:Header>"...)
	}
	dst = append(dst, "<soap:Body><"...)
	dst = append(dst, operation...)
	if namespace != "" {
		dst = append(dst, ` xmlns="`...)
		dst = xmlkit.EscapeAttrValue(dst, namespace)
		dst = append(dst, '"')
	}
	dst = append(dst, '>')
	for _, p := range params {
		if dst, err = appendTextElement(dst, p.Name, p.Value); err != nil {
			return dst, err
		}
	}
	dst = append(dst, "</"...)
	dst = append(dst, operation...)
	dst = append(dst, "></soap:Body></soap:Envelope>"...)
	return dst, nil
}

// appendTextElement writes <name>escaped(value)</name>.
func appendTextElement(dst []byte, name, value string) ([]byte, error) {
	if !validName(name) {
		return dst, fmt.Errorf("%w: invalid element name %q", ErrProtocol, name)
	}
	dst = append(dst, '<')
	dst = append(dst, name...)
	dst = append(dst, '>')
	dst = xmlkit.EscapeElementText(dst, value)
	dst = append(dst, "</"...)
	dst = append(dst, name...)
	dst = append(dst, '>')
	return dst, nil
}

// Encode renders the message as a SOAP envelope.
func Encode(m Message) ([]byte, error) {
	return appendMessage(nil, m)
}

// EncodeTo streams the envelope to w through a pooled buffer: one
// encoding pass, one Write call, no allocation in steady state. An
// encoding error (ErrProtocol) is returned before anything is written.
// This is what Server.ServeHTTP uses to write straight to the
// ResponseWriter.
func EncodeTo(w io.Writer, m Message) error {
	bp := getEncBuf()
	defer putEncBuf(bp)
	b, err := appendMessage((*bp)[:0], m)
	*bp = b[:0]
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

func appendFault(dst []byte, f *Fault) ([]byte, error) {
	if f == nil {
		return dst, fmt.Errorf("%w: nil fault", ErrProtocol)
	}
	dst = append(dst, xmlProlog...)
	dst = append(dst, `<soap:Envelope xmlns:soap="`...)
	dst = append(dst, EnvelopeNS...)
	dst = append(dst, `"><soap:Body><soap:Fault><faultcode>soap:`...)
	dst = xmlkit.EscapeElementText(dst, f.Code)
	dst = append(dst, "</faultcode><faultstring>"...)
	dst = xmlkit.EscapeElementText(dst, f.String)
	dst = append(dst, "</faultstring>"...)
	if f.Detail != "" {
		dst = append(dst, "<detail>"...)
		dst = xmlkit.EscapeElementText(dst, f.Detail)
		dst = append(dst, "</detail>"...)
	}
	dst = append(dst, "</soap:Fault></soap:Body></soap:Envelope>"...)
	return dst, nil
}

// EncodeFault renders a fault envelope.
func EncodeFault(f *Fault) ([]byte, error) {
	return appendFault(nil, f)
}

// Decode parses a SOAP envelope. A fault body decodes into a *Fault error.
func Decode(r io.Reader) (Message, error) {
	bp := getEncBuf()
	defer putEncBuf(bp)
	b := (*bp)[:0]
	var err error
	b, err = readAllInto(b, r)
	*bp = b[:0]
	if err != nil {
		return Message{}, fmt.Errorf("%w: reading envelope: %v", ErrProtocol, err)
	}
	return DecodeBytes(b)
}

// readAllInto is io.ReadAll appending into a reusable buffer.
func readAllInto(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// DecodeBytes parses an in-memory SOAP envelope on the xmlkit streaming
// scanner — no DOM is materialized; the only allocations are the strings
// and maps of the returned Message.
func DecodeBytes(data []byte) (Message, error) {
	m := Message{Params: map[string]string{}, Header: map[string]string{}}
	if err := decodeInto(&m, data); err != nil {
		return Message{}, err
	}
	return m, nil
}

// scanEvent classifies what nextElement stopped on.
type scanEvent int

const (
	scanStart scanEvent = iota
	scanEnd
	scanEOF
)

// nextElement advances the scanner to the next element boundary,
// skipping text (structural positions tolerate stray text, matching the
// DOM decoder's behavior).
func nextElement(s *xmlkit.Scanner) (scanEvent, error) {
	for {
		kind, err := s.Next()
		if err != nil {
			return scanEOF, err
		}
		switch kind {
		case xmlkit.NoToken:
			return scanEOF, nil
		case xmlkit.StartToken:
			return scanStart, nil
		case xmlkit.EndToken:
			return scanEnd, nil
		}
	}
}

// decodeInto decodes the envelope into m, reusing m's maps and slices
// (the pooled-request fast path of Server.ServeHTTP).
func decodeInto(m *Message, data []byte) error {
	s := xmlkit.AcquireScanner(data)
	defer xmlkit.ReleaseScanner(s)
	bp := getEncBuf()
	scratch := (*bp)[:0]
	defer func() { *bp = scratch[:0]; putEncBuf(bp) }()

	ev, err := nextElement(s)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	if ev != scanStart {
		return fmt.Errorf("%w: no root element", ErrProtocol)
	}
	if string(s.LocalName()) != "Envelope" {
		return fmt.Errorf("%w: root is <%s>, want Envelope", ErrProtocol, s.Name())
	}

	sawBody := false
	var fault *Fault
	for {
		ev, err := nextElement(s)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrProtocol, err)
		}
		if ev == scanEOF {
			break
		}
		if ev == scanEnd {
			continue // </Envelope>; keep scanning so trailing junk still errors
		}
		switch string(s.LocalName()) {
		case "Header":
			if err := decodeHeader(s, m, &scratch); err != nil {
				return err
			}
		case "Body":
			if sawBody {
				return fmt.Errorf("%w: multiple Body elements", ErrProtocol)
			}
			sawBody = true
			if fault, err = decodeBody(s, m, &scratch); err != nil {
				return err
			}
		default:
			if err := skipSubtree(s); err != nil {
				return fmt.Errorf("%w: %v", ErrProtocol, err)
			}
		}
	}
	if !sawBody {
		return fmt.Errorf("%w: missing Body", ErrProtocol)
	}
	if fault != nil {
		return fault
	}
	return nil
}

// decodeHeader consumes a <Header> subtree into m.Header.
func decodeHeader(s *xmlkit.Scanner, m *Message, scratch *[]byte) error {
	base := s.Depth() // depth of the Header element itself
	for {
		ev, err := nextElement(s)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrProtocol, err)
		}
		switch ev {
		case scanEOF:
			return fmt.Errorf("%w: truncated Header", ErrProtocol)
		case scanEnd:
			if s.Depth() < base {
				return nil // </Header>
			}
		case scanStart:
			var name string
			// Intern the trace-context entry name: it appears on every
			// traced call and the comparison itself doesn't allocate.
			if string(s.LocalName()) == telemetry.SOAPHeaderName {
				name = telemetry.SOAPHeaderName
			} else {
				name = string(s.LocalName())
			}
			val, err := readElementText(s, scratch)
			if err != nil {
				return err
			}
			m.Header[name] = val
		}
	}
}

// decodeBody consumes a <Body> subtree: exactly one child, either an
// operation element (into m) or a soap:Fault (returned).
func decodeBody(s *xmlkit.Scanner, m *Message, scratch *[]byte) (*Fault, error) {
	base := s.Depth()
	children := 0
	var fault *Fault
	for {
		ev, err := nextElement(s)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrProtocol, err)
		}
		switch ev {
		case scanEOF:
			return nil, fmt.Errorf("%w: truncated Body", ErrProtocol)
		case scanEnd:
			if s.Depth() < base { // </Body>
				if children != 1 {
					return nil, fmt.Errorf("%w: Body has %d children, want 1", ErrProtocol, children)
				}
				return fault, nil
			}
		case scanStart:
			children++
			if children > 1 {
				if err := skipSubtree(s); err != nil {
					return nil, fmt.Errorf("%w: %v", ErrProtocol, err)
				}
				continue
			}
			if string(s.LocalName()) == "Fault" {
				if fault, err = decodeFault(s, scratch); err != nil {
					return nil, err
				}
			} else if err := decodeOperation(s, m, scratch); err != nil {
				return nil, err
			}
		}
	}
}

// decodeOperation consumes the operation element: its name, xmlns, and
// child parameters in document order.
func decodeOperation(s *xmlkit.Scanner, m *Message, scratch *[]byte) error {
	m.Operation = string(s.LocalName())
	if raw, ok := s.Attr("xmlns"); ok {
		ns, err := xmlkit.AttrValue(raw)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrProtocol, err)
		}
		m.Namespace = ns
	}
	base := s.Depth()
	for {
		ev, err := nextElement(s)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrProtocol, err)
		}
		switch ev {
		case scanEOF:
			return fmt.Errorf("%w: truncated operation", ErrProtocol)
		case scanEnd:
			if s.Depth() < base {
				return nil
			}
		case scanStart:
			nameB := s.LocalName()
			_, dup := m.Params[string(nameB)] // no alloc: map lookup on converted key
			name := string(nameB)
			val, err := readElementText(s, scratch)
			if err != nil {
				return err
			}
			if !dup {
				m.ParamOrder = append(m.ParamOrder, name)
			}
			m.Params[name] = val
		}
	}
}

// decodeFault consumes a soap:Fault subtree.
func decodeFault(s *xmlkit.Scanner, scratch *[]byte) (*Fault, error) {
	f := &Fault{}
	base := s.Depth()
	for {
		ev, err := nextElement(s)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrProtocol, err)
		}
		switch ev {
		case scanEOF:
			return nil, fmt.Errorf("%w: truncated Fault", ErrProtocol)
		case scanEnd:
			if s.Depth() < base {
				return f, nil
			}
		case scanStart:
			name := string(s.LocalName())
			val, err := readElementText(s, scratch)
			if err != nil {
				return nil, err
			}
			switch name {
			case "faultcode":
				// The code may carry any prefix ("soap:Client"); keep the
				// local part, as the DOM decoder did.
				f.Code = local(val)
			case "faultstring":
				f.String = val
			case "detail":
				f.Detail = val
			}
		}
	}
}

// readElementText consumes the current element's subtree and returns its
// concatenated non-whitespace text content, trimmed — the streaming
// equivalent of Node.Text() over a DOM whose builder dropped ignorable
// whitespace.
func readElementText(s *xmlkit.Scanner, scratch *[]byte) (string, error) {
	target := s.Depth() - 1
	buf := (*scratch)[:0]
	for s.Depth() > target {
		kind, err := s.Next()
		if err != nil {
			*scratch = buf
			return "", fmt.Errorf("%w: %v", ErrProtocol, err)
		}
		switch kind {
		case xmlkit.NoToken:
			*scratch = buf
			return "", fmt.Errorf("%w: truncated element", ErrProtocol)
		case xmlkit.TextToken:
			if !s.IsWhitespace() {
				if buf, err = s.AppendTo(buf); err != nil {
					*scratch = buf
					return "", fmt.Errorf("%w: %v", ErrProtocol, err)
				}
			}
		}
	}
	*scratch = buf
	return string(bytes.TrimSpace(buf)), nil
}

// skipSubtree consumes the current element's entire subtree.
func skipSubtree(s *xmlkit.Scanner) error {
	target := s.Depth() - 1
	for s.Depth() > target {
		kind, err := s.Next()
		if err != nil {
			return err
		}
		if kind == xmlkit.NoToken {
			return errors.New("truncated document")
		}
	}
	return nil
}

func local(name string) string {
	if i := strings.LastIndexByte(name, ':'); i >= 0 {
		return name[i+1:]
	}
	return name
}

// HandlerFunc processes one decoded request message and returns the
// response message. The context is the transport's request context (the
// HTTP request's, for the Server binding), so cancellation and deadlines
// propagate into service handlers. Returning a *Fault (or any error)
// produces a SOAP fault; other errors become Server faults.
type HandlerFunc func(ctx context.Context, req Message) (Message, error)

// Server is the HTTP binding of a SOAP endpoint. Operations are matched by
// the body's operation element name; the SOAPAction header, when present,
// must agree.
type Server struct {
	// Namespace is the service namespace advertised in responses.
	Namespace string
	handlers  map[string]HandlerFunc
	// respNames precomputes "<op>Response" per operation at registration
	// time so the dispatch fast path does not concatenate per request.
	respNames map[string]string
}

// NewServer returns an empty SOAP endpoint for the namespace.
func NewServer(namespace string) *Server {
	return &Server{
		Namespace: namespace,
		handlers:  make(map[string]HandlerFunc),
		respNames: make(map[string]string),
	}
}

// Handle registers a handler for the operation name. The response message
// returned by h gets the operation's conventional "<op>Response" name and
// the server namespace unless h set them.
func (s *Server) Handle(operation string, h HandlerFunc) error {
	if operation == "" || h == nil {
		return fmt.Errorf("%w: invalid handler registration", ErrProtocol)
	}
	if _, dup := s.handlers[operation]; dup {
		return fmt.Errorf("%w: duplicate operation %q", ErrProtocol, operation)
	}
	s.handlers[operation] = h
	s.respNames[operation] = operation + "Response"
	return nil
}

// Operations lists the registered operation names.
func (s *Server) Operations() []string {
	return slices.Sorted(maps.Keys(s.handlers))
}

// ServeHTTP implements http.Handler. The request message handed to the
// handler is pooled: its maps and slices are valid only for the duration
// of the handler call, so handlers must copy anything they retain (the
// host binding copies params into core.Values before invoking).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeFault(w, http.StatusMethodNotAllowed, ClientFault("SOAP requires POST, got %s", r.Method))
		return
	}
	req := acquireMessage()
	defer releaseMessage(req)
	bp := getEncBuf()
	body, err := readAllInto((*bp)[:0], r.Body)
	if err == nil {
		err = decodeInto(req, body)
	} else {
		err = fmt.Errorf("%w: reading envelope: %v", ErrProtocol, err)
	}
	*bp = body[:0]
	putEncBuf(bp)
	if err != nil {
		writeFault(w, http.StatusBadRequest, ClientFault("malformed envelope: %v", err))
		return
	}
	// "Soapaction" is the canonical key: Get canonicalizes any other
	// spelling into a fresh string on every request.
	if action := strings.Trim(r.Header.Get("Soapaction"), `"`); action != "" {
		// SOAPAction is conventionally namespace#operation or just the
		// operation; the suffix must match the body operation.
		if !strings.HasSuffix(action, req.Operation) {
			writeFault(w, http.StatusBadRequest, ClientFault("SOAPAction %q does not match operation %q", action, req.Operation))
			return
		}
	}
	h, ok := s.handlers[req.Operation]
	if !ok {
		writeFault(w, http.StatusBadRequest, ClientFault("unknown operation %q", req.Operation))
		return
	}
	// A valid transport trace parent overrides the envelope's SocTrace
	// entry, so a handler joins the caller's trace from that one entry.
	if tp := r.Header.Get(telemetry.HeaderName); tp != "" {
		if _, ok := telemetry.ParseTraceParent(tp); ok {
			req.Header[telemetry.SOAPHeaderName] = tp
		}
	}
	resp, err := h(r.Context(), *req)
	if err != nil {
		var f *Fault
		if !errors.As(err, &f) {
			f = ServerFault("%v", err)
		}
		writeFault(w, http.StatusInternalServerError, f)
		return
	}
	if resp.Operation == "" {
		resp.Operation = s.respNames[req.Operation]
	}
	if resp.Namespace == "" {
		resp.Namespace = s.Namespace
	}
	w.Header().Set("Content-Type", ContentType)
	// EncodeTo fails with ErrProtocol before writing anything, so the
	// fault still owns the status line; any other error is the client
	// gone mid-write.
	if err := EncodeTo(w, resp); errors.Is(err, ErrProtocol) {
		writeFault(w, http.StatusInternalServerError, ServerFault("response encoding: %v", err))
	}
}

func writeFault(w http.ResponseWriter, status int, f *Fault) {
	out, err := EncodeFault(f)
	if err != nil {
		http.Error(w, f.String, status)
		return
	}
	w.Header().Set("Content-Type", ContentType)
	w.WriteHeader(status)
	_, _ = w.Write(out)
}

// Client invokes SOAP operations over HTTP — a thin binding over the
// call plane: trace context rides both the X-Soc-Trace transport header
// and an in-message SocTrace header entry, so it survives intermediaries
// that drop either layer. The zero value is ready to use; a Client must
// not be copied after its first call.
type Client struct {
	// HTTPClient supplies the Transport and the Timeout of every request
	// (callplane.Do: redirects are returned, not followed, and Jar and
	// CheckRedirect are not consulted); nil uses a 30 s timeout.
	HTTPClient *http.Client
	// Tracer records client spans; nil uses the process default.
	Tracer *telemetry.Tracer

	// routes holds, per endpoint and operation, what every request to it
	// shares: the parsed URL and the Content-Type and SOAPAction headers.
	routes callplane.Records[routeKey, *callplane.Route]
}

type routeKey struct{ url, namespace, operation string }

// defaultHTTPClient serves every Client that has none of its own.
var defaultHTTPClient = &http.Client{Timeout: 30 * time.Second}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return defaultHTTPClient
}

func (c *Client) tracer() *telemetry.Tracer {
	if c.Tracer != nil {
		return c.Tracer
	}
	return telemetry.Default()
}

func newRoute(k routeKey) (*callplane.Route, error) {
	action := k.operation
	if k.namespace != "" {
		action = k.namespace + "#" + k.operation
	}
	return callplane.NewRoute(http.MethodPost, k.url, k.operation,
		"Content-Type", ContentType, "SOAPAction", `"`+action+`"`)
}

// Call sends the message to url and decodes the response. SOAP faults are
// returned as *Fault errors. The context cancels the in-flight HTTP
// request, not just the wait for it.
func (c *Client) Call(ctx context.Context, url string, req Message) (Message, error) {
	sp, ctx := c.startSpan(ctx, url, req.Operation)
	resp, err := c.call(ctx, sp, url, req)
	sp.EndErr(err)
	return resp, err
}

func (c *Client) call(ctx context.Context, sp *telemetry.Span, url string, req Message) (Message, error) {
	var hbuf [4]Param
	var pbuf [8]Param
	header, params, err := req.lists(hbuf[:0], pbuf[:0])
	if err != nil {
		return Message{}, err
	}
	data, err := c.exchange(ctx, sp, url, req.Namespace, req.Operation, header, params)
	if err != nil {
		return Message{}, err
	}
	defer data.Release()
	return DecodeBytes(data.B)
}

// CallParams is Call for a binding that holds its arguments as a list and
// wants only the response's parameters: params are sent in the order
// given, and the returned map is the caller's own.
func (c *Client) CallParams(ctx context.Context, url, namespace, operation string, params []Param) (map[string]string, error) {
	sp, ctx := c.startSpan(ctx, url, operation)
	out, err := c.callParams(ctx, sp, url, namespace, operation, params)
	sp.EndErr(err)
	return out, err
}

func (c *Client) callParams(ctx context.Context, sp *telemetry.Span, url, namespace, operation string, params []Param) (map[string]string, error) {
	data, err := c.exchange(ctx, sp, url, namespace, operation, nil, params)
	if err != nil {
		return nil, err
	}
	defer data.Release()
	// Decode as the server does, into a pooled message, and keep only the
	// parameters: their strings are fresh, the map is sized to them.
	resp := acquireMessage()
	defer releaseMessage(resp)
	if err := decodeInto(resp, data.B); err != nil {
		return nil, err
	}
	out := make(map[string]string, len(resp.Params))
	for k, v := range resp.Params {
		out[k] = v
	}
	return out, nil
}

func (c *Client) startSpan(ctx context.Context, url, operation string) (*telemetry.Span, context.Context) {
	sp, ctx := c.tracer().StartSpan(ctx, telemetry.KindClient, operation)
	if sp != nil {
		sp.Target = url
		sp.Annotate("binding", "soap")
	}
	return sp, ctx
}

// exchange posts one envelope and returns the response body in a pooled
// buffer, which the caller releases. With a span, its trace context
// replaces any SocTrace entry among the header entries (sorted by name).
func (c *Client) exchange(ctx context.Context, sp *telemetry.Span, url, namespace, operation string, header, params []Param) (*callplane.Buffer, error) {
	var tbuf [4]Param
	if sp != nil {
		header = withTrace(tbuf[:0], header, sp.TraceParent())
	}
	rt, err := c.routes.Get(routeKey{url, namespace, operation}, newRoute)
	if err != nil {
		return nil, fmt.Errorf("soap: building request: %w", err)
	}
	body := callplane.GetBuffer()
	if body.B, err = appendEnvelope(body.B, namespace, operation, header, params); err != nil {
		body.Release()
		return nil, err
	}
	// The request owns the body from here: the transport may still be
	// sending it when Do returns, so it is released at Body.Close.
	httpResp, err := callplane.Do(c.httpClient(), rt.NewRequest(ctx, body))
	if err != nil {
		return nil, fmt.Errorf("soap: transport: %w", err)
	}
	defer httpResp.Body.Close()
	data := callplane.GetBuffer()
	if err := data.FillResponse(httpResp.Body); err != nil {
		data.Release()
		return nil, fmt.Errorf("%w: reading envelope: %w", ErrProtocol, err)
	}
	return data, nil
}

// withTrace appends header to out with the SocTrace entry set to
// traceParent, keeping the order by name; header itself is not written to.
func withTrace(out, header []Param, traceParent string) []Param {
	placed := false
	for _, h := range header {
		if !placed && h.Name >= telemetry.SOAPHeaderName {
			out = append(out, Param{telemetry.SOAPHeaderName, traceParent})
			placed = true
		}
		if h.Name != telemetry.SOAPHeaderName {
			out = append(out, h)
		}
	}
	if !placed {
		out = append(out, Param{telemetry.SOAPHeaderName, traceParent})
	}
	return out
}
