package host

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"soc/internal/callplane"
	"soc/internal/core"
	"soc/internal/soap"
	"soc/internal/telemetry"
	"soc/internal/wsdl"
)

// ErrRemote reports a remote invocation failure, wrapping the transported
// problem detail.
var ErrRemote = errors.New("host: remote error")

// Client consumes services exposed by a Host (or any server following the
// same URL conventions), over either binding — a thin binding over the
// call plane: every request carries the caller's deadline and trace
// context, and every call records a client span.
type Client struct {
	// BaseURL is the server prefix, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient supplies the Transport and the Timeout of every request
	// (callplane.Do: redirects are returned, not followed, and Jar and
	// CheckRedirect are not consulted); nil uses a 30 s timeout.
	HTTPClient *http.Client
	// Tracer records client spans; nil uses the process default.
	Tracer *telemetry.Tracer

	bound atomic.Pointer[binding]
}

// binding is what the client resolves from its configuration and then
// keeps: the SOAP binding, and per operation the REST route (parsed URL,
// span name, shared header slices) and SOAP endpoint, filled on the first
// call to each. It is valid for the field values it was made from.
type binding struct {
	baseURL    string
	httpClient *http.Client
	tracer     *telemetry.Tracer
	soap       soap.Client
	endpoints  callplane.Records[endpointKey, *endpoint]
}

type endpointKey struct{ service, op string }

type endpoint struct {
	rest    *callplane.Route
	soapURL string
}

// NewClient returns a client for the given base URL.
func NewClient(baseURL string) *Client { return &Client{BaseURL: baseURL} }

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

// binding returns the resolved state for the client's current fields,
// starting afresh if one of them was reassigned since the last call.
func (c *Client) binding() *binding {
	b := c.bound.Load()
	if b == nil || b.baseURL != c.BaseURL || b.httpClient != c.HTTPClient || b.tracer != c.Tracer {
		b = &binding{baseURL: c.BaseURL, httpClient: c.HTTPClient, tracer: c.Tracer}
		b.soap.HTTPClient, b.soap.Tracer = c.HTTPClient, c.Tracer
		c.bound.Store(b)
	}
	return b
}

func (b *binding) endpoint(service, op string) (*endpoint, error) {
	return b.endpoints.Get(endpointKey{service, op}, func(k endpointKey) (*endpoint, error) {
		prefix := b.baseURL + "/services/" + k.service
		rt, err := callplane.NewRoute(http.MethodPost, prefix+"/invoke/"+k.op, k.service+"."+k.op,
			"Content-Type", "application/json", "Accept", "application/json")
		if err != nil {
			return nil, err
		}
		return &endpoint{rest: rt, soapURL: prefix + "/soap"}, nil
	})
}

// Call invokes service.op over the REST binding with JSON arguments.
func (c *Client) Call(ctx context.Context, service, op string, args core.Values) (core.Values, error) {
	ep, err := c.binding().endpoint(service, op)
	if err != nil {
		return nil, err
	}
	sp, call, ctx := c.tracer().StartCall(ctx, telemetry.KindClient, ep.rest.Name)
	if sp != nil {
		sp.Target = c.BaseURL
		sp.Annotate("binding", "rest")
	}
	out, err := c.exchange(ctx, call, ep.rest, args)
	sp.EndErr(err)
	return out, err
}

// call is the span-free REST exchange; ResilientClient invokes it under
// its own per-attempt spans so a resilient call doesn't double-record.
func (c *Client) call(ctx context.Context, service, op string, args core.Values) (core.Values, error) {
	ep, err := c.binding().endpoint(service, op)
	if err != nil {
		return nil, err
	}
	return c.exchange(ctx, telemetry.CallTraceOf(ctx), ep.rest, args)
}

// exchange posts args over the route, carrying the trace call, and
// decodes the answer. Request and response bytes live in pooled buffers;
// the returned map and everything in it is fresh and the caller's own.
func (c *Client) exchange(ctx context.Context, call telemetry.CallTrace, rt *callplane.Route, args core.Values) (core.Values, error) {
	body := callplane.GetBuffer()
	var err error
	if body.B, err = appendJSONObject(body.B, args); err != nil {
		body.Release()
		return nil, fmt.Errorf("host: encoding args: %w", err)
	}
	// The request owns the body from here: the transport may still be
	// sending it when Do returns, so it is released at Body.Close.
	resp, err := callplane.Do(c.httpClient(), rt.NewRequest(ctx, call, body))
	if err != nil {
		return nil, fmt.Errorf("%w: transport: %w", ErrRemote, err)
	}
	defer resp.Body.Close()
	data := callplane.GetBuffer()
	defer data.Release()
	if err := data.FillResponse(resp.Body); err != nil {
		return nil, fmt.Errorf("%w: reading response: %w", ErrRemote, err)
	}
	if resp.StatusCode != http.StatusOK {
		var prob struct {
			Detail string `json:"detail"`
			Title  string `json:"title"`
		}
		if json.Unmarshal(data.B, &prob) == nil && prob.Detail != "" {
			return nil, fmt.Errorf("%w: %s (%d)", ErrRemote, prob.Detail, resp.StatusCode)
		}
		return nil, fmt.Errorf("%w: status %d", ErrRemote, resp.StatusCode)
	}
	out, err := decodeJSONObject(data.B)
	if err != nil {
		return nil, fmt.Errorf("%w: decoding response: %v", ErrRemote, err)
	}
	return out, nil
}

// CallSOAP invokes service.op over the SOAP binding. Arguments are
// serialized to their lexical forms; results come back as strings (the
// caller coerces as needed, as any WSDL-driven client would).
func (c *Client) CallSOAP(ctx context.Context, service, op, namespace string, args core.Values) (map[string]string, error) {
	b := c.binding()
	ep, err := b.endpoint(service, op)
	if err != nil {
		return nil, err
	}
	var pbuf [8]soap.Param // on the stack for the argument lists services take
	params := pbuf[:0]
	for k, v := range args {
		params = append(params, soap.Param{Name: k, Value: core.FormatValue(v)})
	}
	// By name, as the envelope always listed them.
	return b.soap.CallParams(ctx, ep.soapURL, namespace, op, soap.SortParams(params))
}

// Describe fetches the WSDL for a service and parses it.
func (c *Client) Describe(ctx context.Context, service string) (*wsdl.Description, error) {
	url := fmt.Sprintf("%s/services/%s?wsdl", c.BaseURL, service)
	req, err := callplane.NewRequest(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := callplane.Do(c.httpClient(), req)
	if err != nil {
		return nil, fmt.Errorf("%w: transport: %w", ErrRemote, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%w: wsdl status %d", ErrRemote, resp.StatusCode)
	}
	data := callplane.GetBuffer()
	defer data.Release()
	if err := data.FillResponse(resp.Body); err != nil {
		return nil, fmt.Errorf("%w: reading wsdl: %w", ErrRemote, err)
	}
	return wsdl.Parse(bytes.NewReader(data.B))
}
