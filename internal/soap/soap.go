// Package soap implements the SOAP 1.1 document-style message protocol of
// CSE445 unit 3: envelope encoding and decoding, fault reporting, and the
// HTTP binding: the server's reading of a request, checked against its
// SOAPAction, and writing of the answer, and a client's per-operation
// Route.
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
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

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

// ---- pooled messages (the hot-path allocation discipline;
// see DESIGN.md "Hot-path message plane") ----

// msgPool recycles the messages Route.Call decodes answers into. The maps
// are cleared (not reallocated) between calls, so steady-state decoding
// does not grow the heap.
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
	dst = append(dst, xmlkit.Header...)
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

func appendFault(dst []byte, f *Fault) ([]byte, error) {
	if f == nil {
		return dst, fmt.Errorf("%w: nil fault", ErrProtocol)
	}
	dst = append(dst, xmlkit.Header...)
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

// DecodeBytes parses an in-memory SOAP envelope on the xmlkit streaming
// scanner — no DOM is materialized; the only allocations are the strings
// and maps of the returned Message.
func DecodeBytes(data []byte) (Message, error) {
	return decodeBytes(data, nil)
}

// decodeBytes is DecodeBytes with the names known lends.
func decodeBytes(data []byte, known *names) (Message, error) {
	m := Message{Params: map[string]string{}, Header: map[string]string{}}
	if err := decodeInto(&m, data, false, known); err != nil {
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

// names lends a decode the strings it would otherwise copy out of the
// envelope: the operation and parameter names the caller expects, each
// mapped to itself, and the namespace. A name it does not hold is copied
// out of the envelope.
type names struct {
	known map[string]string
	ns    string
}

// name is the operation or parameter name spelled by b.
func (n *names) name(b []byte) string {
	if n != nil {
		if name, ok := n.known[string(b)]; ok {
			return name
		}
	}
	return string(b)
}

// namespace is the xmlns value whose raw attribute text is raw.
func (n *names) namespace(raw []byte) (string, error) {
	// Text with no reference and no tab or line end reads as written.
	if n != nil && string(raw) == n.ns && bytes.IndexAny(raw, "&\t\n\r") < 0 {
		return n.ns, nil
	}
	return xmlkit.AttrValue(raw)
}

// decodeInto decodes the envelope into m, reusing m's maps and slices
// (the pooled-request fast path of Server.ReadRequest). With skipTrace the
// Header's SocTrace entry is checked but not copied: the caller has a
// transport value that overrides it. known, which may be nil, lends the
// operation and parameter names and the namespace.
func decodeInto(m *Message, data []byte, skipTrace bool, known *names) error {
	s := xmlkit.AcquireScanner(data)
	defer xmlkit.ReleaseScanner(s)
	scratch := callplane.GetBuffer()
	defer scratch.Release()

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
			if err := decodeHeader(s, m, &scratch.B, skipTrace); err != nil {
				return err
			}
		case "Body":
			if sawBody {
				return fmt.Errorf("%w: multiple Body elements", ErrProtocol)
			}
			sawBody = true
			if fault, err = decodeBody(s, m, &scratch.B, known); err != nil {
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

// decodeHeader consumes a <Header> subtree into m.Header, all but a
// SocTrace entry under skipTrace.
func decodeHeader(s *xmlkit.Scanner, m *Message, scratch *[]byte, skipTrace bool) error {
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
				if skipTrace {
					if err := skipSubtree(s); err != nil {
						return fmt.Errorf("%w: %v", ErrProtocol, err)
					}
					continue
				}
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
func decodeBody(s *xmlkit.Scanner, m *Message, scratch *[]byte, known *names) (*Fault, error) {
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
			} else if err := decodeOperation(s, m, scratch, known); err != nil {
				return nil, err
			}
		}
	}
}

// decodeOperation consumes the operation element: its name, xmlns, and
// child parameters in document order.
func decodeOperation(s *xmlkit.Scanner, m *Message, scratch *[]byte, known *names) error {
	m.Operation = known.name(s.LocalName())
	if raw, ok := s.Attr("xmlns"); ok {
		ns, err := known.namespace(raw)
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
			name := known.name(s.LocalName())
			_, dup := m.Params[name]
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

// Server is the server half of a SOAP endpoint's HTTP binding: it reads
// a request envelope, once, into a message that borrows the names its
// operations declared, and writes the answer or the fault. The dispatch
// in between is its user's (package host, which also caches answers).
type Server struct {
	// Namespace is the service namespace advertised in answers.
	Namespace string
	// respNames precomputes "<op>Response" per operation at declaration
	// time so an answer does not concatenate per request.
	respNames map[string]string
	// known maps each declared operation and parameter name to itself: a
	// request's decode takes the names from here instead of copying them.
	known map[string]string
}

// NewServer returns an endpoint for the namespace with no operations.
func NewServer(namespace string) *Server {
	return &Server{
		Namespace: namespace,
		respNames: make(map[string]string),
		known:     make(map[string]string),
	}
}

// Declare adds an operation and the names of its parameters.
func (s *Server) Declare(operation string, params ...string) error {
	if operation == "" {
		return fmt.Errorf("%w: empty operation declared", ErrProtocol)
	}
	if _, dup := s.respNames[operation]; dup {
		return fmt.Errorf("%w: duplicate operation %q", ErrProtocol, operation)
	}
	s.respNames[operation] = operation + "Response"
	s.known[operation] = operation
	for _, name := range params {
		s.known[name] = name
	}
	return nil
}

// maxEnvelope bounds a request envelope; a larger one is refused.
const maxEnvelope = 1 << 20

// ReadRequest reads the envelope r posts into body and decodes it into
// req, reusing req's maps, and reports whether it names a declared
// operation that r's SOAPAction, when set, agrees with. When r carries an
// X-Soc-Trace header the envelope's SocTrace entry is checked but not
// copied: the transport's trace parent wins, and whoever reads the trace
// takes it from there. Otherwise it writes the Client fault to w.
func (s *Server) ReadRequest(w http.ResponseWriter, r *http.Request, body *callplane.Buffer, req *Message) bool {
	if r.Method != http.MethodPost {
		writeFault(w, http.StatusMethodNotAllowed, ClientFault("SOAP requires POST, got %s", r.Method))
		return false
	}
	if req.Params == nil {
		req.Params, req.Header = make(map[string]string, 8), make(map[string]string, 2)
	}
	req.resetForReuse()
	err := body.Fill(r.Body, maxEnvelope+1)
	if err == nil && len(body.B) > maxEnvelope {
		err = fmt.Errorf("larger than %d bytes", maxEnvelope)
	}
	if err == nil {
		skipTrace := r.Header.Get(telemetry.HeaderName) != ""
		err = decodeInto(req, body.B, skipTrace, &names{known: s.known, ns: s.Namespace})
	} else {
		err = fmt.Errorf("%w: reading envelope: %v", ErrProtocol, err)
	}
	if err != nil {
		writeFault(w, http.StatusBadRequest, ClientFault("malformed envelope: %v", err))
		return false
	}
	// "Soapaction" is the canonical key: Get canonicalizes any other
	// spelling into a fresh string on every request.
	if action := strings.Trim(r.Header.Get("Soapaction"), `"`); action != "" {
		// SOAPAction is conventionally namespace#operation or just the
		// operation; the suffix must match the body operation.
		if !strings.HasSuffix(action, req.Operation) {
			writeFault(w, http.StatusBadRequest, ClientFault("SOAPAction %q does not match operation %q", action, req.Operation))
			return false
		}
	}
	if _, ok := s.respNames[req.Operation]; !ok {
		writeFault(w, http.StatusBadRequest, ClientFault("unknown operation %q", req.Operation))
		return false
	}
	return true
}

// WriteAnswer writes the answer to a request for the declared operation:
// the "<operation>Response" element in the server's namespace holding
// params in the order given, through a pooled buffer in one Write. An
// answer that cannot be encoded becomes a Server fault, with nothing
// written before it.
func (s *Server) WriteAnswer(w http.ResponseWriter, operation string, params []Param) {
	buf := callplane.GetBuffer()
	defer buf.Release()
	var err error
	if buf.B, err = appendEnvelope(buf.B, s.Namespace, s.respNames[operation], nil, params); err != nil {
		WriteFault(w, ServerFault("response encoding: %v", err))
		return
	}
	w.Header()["Content-Type"] = contentType
	_, _ = w.Write(buf.B)
}

// WriteFault writes f as the answer to a request that failed in its
// dispatch, with status 500 as SOAP 1.1 has it.
func WriteFault(w http.ResponseWriter, f *Fault) {
	writeFault(w, http.StatusInternalServerError, f)
}

// contentType is the Content-Type value every response shares, assigned
// by its canonical key: Header.Set would allocate a fresh slice per
// response. It is full (len == cap), so a middleware appending to it
// reallocates instead of mutating it.
var contentType = []string{ContentType}

func writeFault(w http.ResponseWriter, status int, f *Fault) {
	out, err := EncodeFault(f)
	if err != nil {
		http.Error(w, f.String, status)
		return
	}
	w.Header()["Content-Type"] = contentType
	w.WriteHeader(status)
	_, _ = w.Write(out)
}

// Route is one operation's requests at one endpoint under one namespace
// — the parsed URL and the Content-Type and SOAPAction headers every
// request shares — and the names of their answers: the "<op>Response"
// element a Server writes, in the request's namespace, and once the first
// good answer has come, its parameter names too. A Route is safe for
// concurrent use.
type Route struct {
	namespace, operation string
	req                  *callplane.Route
	answer               names
	// learned is answer with the parameter names of the operation's first
	// good answer added — at most maxAnswerNames of them — set once;
	// every later decode borrows from it.
	learned atomic.Pointer[names]
}

// maxAnswerNames bounds the parameter names a route learns from an answer.
const maxAnswerNames = 32

// NewRoute resolves the route of operation under namespace at url.
func NewRoute(url, namespace, operation string) (*Route, error) {
	action := operation
	if namespace != "" {
		action = namespace + "#" + operation
	}
	req, err := callplane.NewRoute(http.MethodPost, url, operation,
		"Content-Type", ContentType, "SOAPAction", `"`+action+`"`)
	if err != nil {
		return nil, fmt.Errorf("soap: building request: %w", err)
	}
	resp := operation + "Response"
	return &Route{namespace: namespace, operation: operation, req: req,
		answer: names{known: map[string]string{resp: resp}, ns: namespace}}, nil
}

// names returns what an answer's decode borrows from.
func (rt *Route) names() *names {
	if n := rt.learned.Load(); n != nil {
		return n
	}
	return &rt.answer
}

// learn sets, if it is not set yet, the learned names from resp, a good
// answer's decode that has parameters. An element name is never escaped,
// so each is spelled in every answer as it reads.
func (rt *Route) learn(resp *Message) {
	if len(resp.ParamOrder) == 0 || rt.learned.Load() != nil {
		return
	}
	known := make(map[string]string, len(rt.answer.known)+min(len(resp.ParamOrder), maxAnswerNames))
	for k, v := range rt.answer.known {
		known[k] = v
	}
	for _, name := range resp.ParamOrder[:min(len(resp.ParamOrder), maxAnswerNames)] {
		known[name] = name
	}
	rt.learned.CompareAndSwap(nil, &names{known: known, ns: rt.answer.ns})
}

// Call posts one envelope of params, in the order given, over hc — a thin
// binding over the call plane (callplane.Do) — and returns the answer's
// parameters in a map that is the caller's own. The trace call
// (telemetry.Tracer.StartCall) rides both the X-Soc-Trace transport
// header and the envelope's one SocTrace header entry, so it survives
// intermediaries that drop either layer. SOAP faults are returned as
// *Fault errors. The context cancels the in-flight HTTP request, not just
// the wait for it.
func (rt *Route) Call(ctx context.Context, hc *http.Client, call telemetry.CallTrace, params []Param) (map[string]string, error) {
	var tbuf [1]Param
	var header []Param
	if call.Header != "" {
		header = append(tbuf[:0], Param{telemetry.SOAPHeaderName, call.Header})
	}
	body := callplane.GetBuffer()
	var err error
	if body.B, err = appendEnvelope(body.B, rt.namespace, rt.operation, header, params); err != nil {
		body.Release()
		return nil, err
	}
	// The request owns the body from here: the transport may still be
	// sending it when Do returns, so it is released at Body.Close.
	httpResp, err := callplane.Do(hc, rt.req.NewRequest(ctx, call, body))
	if err != nil {
		return nil, fmt.Errorf("soap: transport: %w", err)
	}
	defer httpResp.Body.Close()
	data := callplane.GetBuffer()
	defer data.Release()
	if err := data.FillResponse(httpResp.Body); err != nil {
		return nil, fmt.Errorf("%w: reading envelope: %w", ErrProtocol, err)
	}
	// Decode as the server does, into a pooled message, and keep only the
	// parameters: the values are fresh strings, the names the route's
	// where it has them, the map is sized to them.
	resp := acquireMessage()
	defer releaseMessage(resp)
	if err := decodeInto(resp, data.B, false, rt.names()); err != nil {
		return nil, err
	}
	rt.learn(resp)
	out := make(map[string]string, len(resp.Params))
	for k, v := range resp.Params {
		out[k] = v
	}
	return out, nil
}
