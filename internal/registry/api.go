package registry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"soc/internal/callplane"
	"soc/internal/rest"
	"soc/internal/telemetry"
)

// API exposes a Registry over REST:
//
//	GET    /registry/services            list (all|live)
//	POST   /registry/services            publish (JSON Entry)
//	GET    /registry/services/{name}     fetch one
//	DELETE /registry/services/{name}     unpublish
//	POST   /registry/services/{name}/heartbeat
//	GET    /registry/search?q=...&limit=N
//	GET    /registry/categories
//	GET    /registry/categories/{cat}    entries under a taxonomy prefix
type API struct {
	reg    Directory
	router *rest.Router
}

// Directory is the registry surface the REST API serves. Both *Registry
// (in-memory) and *DurableRegistry (write-ahead logged) implement it, so
// a deployment picks durability without touching the API layer.
type Directory interface {
	Publish(e Entry) error
	Unpublish(name string) error
	Heartbeat(name string) error
	Get(name string) (Entry, error)
	List(liveOnly bool) []Entry
	Search(query string, limit int) ([]Match, error)
	Categories() []string
	ByCategory(prefix string) []Entry
}

// NewAPI wraps a registry in its REST API.
func NewAPI(reg Directory) *API {
	a := &API{reg: reg, router: rest.NewRouter()}
	a.router.Use(rest.Recovery())
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(a.router.GET("/registry/services", a.list))
	must(a.router.POST("/registry/services", a.publish))
	must(a.router.GET("/registry/services/{name}", a.get))
	must(a.router.DELETE("/registry/services/{name}", a.unpublish))
	must(a.router.POST("/registry/services/{name}/heartbeat", a.heartbeat))
	must(a.router.GET("/registry/search", a.search))
	must(a.router.GET("/registry/categories", a.categories))
	must(a.router.GET("/registry/categories/{cat}", a.byCategory))
	return a
}

// ServeHTTP implements http.Handler.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) { a.router.ServeHTTP(w, r) }

// Use appends middleware to the API's router (first registered
// outermost) — e.g. rest.Tracing to join registry lookups into the
// caller's trace tree.
func (a *API) Use(mw ...rest.Middleware) { a.router.Use(mw...) }

func (a *API) list(w http.ResponseWriter, r *http.Request, _ rest.Params) {
	liveOnly := r.URL.Query().Get("all") == ""
	rest.WriteResponse(w, r, http.StatusOK, a.reg.List(liveOnly))
}

func (a *API) publish(w http.ResponseWriter, r *http.Request, _ rest.Params) {
	var e Entry
	if err := rest.ReadJSON(r, &e); err != nil {
		rest.WriteError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	if err := a.reg.Publish(e); err != nil {
		rest.WriteError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	stored, _ := a.reg.Get(e.Name)
	rest.WriteResponse(w, r, http.StatusCreated, stored)
}

func (a *API) get(w http.ResponseWriter, r *http.Request, p rest.Params) {
	e, err := a.reg.Get(p["name"])
	if err != nil {
		rest.WriteError(w, r, http.StatusNotFound, "%v", err)
		return
	}
	rest.WriteResponse(w, r, http.StatusOK, e)
}

func (a *API) unpublish(w http.ResponseWriter, r *http.Request, p rest.Params) {
	if err := a.reg.Unpublish(p["name"]); err != nil {
		rest.WriteError(w, r, http.StatusNotFound, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (a *API) heartbeat(w http.ResponseWriter, r *http.Request, p rest.Params) {
	if err := a.reg.Heartbeat(p["name"]); err != nil {
		rest.WriteError(w, r, http.StatusNotFound, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (a *API) search(w http.ResponseWriter, r *http.Request, _ rest.Params) {
	q := r.URL.Query().Get("q")
	limit, _ := strconv.Atoi(r.URL.Query().Get("limit"))
	matches, err := a.reg.Search(q, limit)
	if err != nil {
		rest.WriteError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	if matches == nil {
		matches = []Match{}
	}
	rest.WriteResponse(w, r, http.StatusOK, matches)
}

func (a *API) categories(w http.ResponseWriter, r *http.Request, _ rest.Params) {
	rest.WriteResponse(w, r, http.StatusOK, a.reg.Categories())
}

func (a *API) byCategory(w http.ResponseWriter, r *http.Request, p rest.Params) {
	entries := a.reg.ByCategory(p["cat"])
	if entries == nil {
		entries = []Entry{}
	}
	rest.WriteResponse(w, r, http.StatusOK, entries)
}

// Client talks to a remote registry API — a thin binding over the call
// plane: requests carry the caller's deadline and trace context, and each
// operation records a client span.
type Client struct {
	BaseURL string
	// HTTPClient supplies the Transport and the Timeout of every request
	// (callplane.Do: redirects are returned, not followed, and Jar and
	// CheckRedirect are not consulted); nil uses a 15 s timeout.
	HTTPClient *http.Client
	// Tracer records client spans; nil uses the process default.
	Tracer *telemetry.Tracer
}

// NewClient returns a registry client.
func NewClient(baseURL string) *Client { return &Client{BaseURL: baseURL} }

// defaultHTTPClient serves every Client that has none of its own.
var defaultHTTPClient = &http.Client{Timeout: 15 * time.Second}

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

func (c *Client) do(ctx context.Context, op, method, path string, body any, out any) error {
	sp, ctx := c.tracer().StartSpan(ctx, telemetry.KindClient, "registry."+op)
	if sp != nil {
		sp.Target = c.BaseURL
		sp.Annotate("binding", "registry")
	}
	err := c.exchange(ctx, method, path, body, out)
	sp.EndErr(err)
	return err
}

func (c *Client) exchange(ctx context.Context, method, path string, body any, out any) error {
	var rdr io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rdr = bytes.NewReader(data)
	}
	req, err := callplane.NewRequest(ctx, method, c.BaseURL+path, rdr)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("Accept", "application/json")
	resp, err := callplane.Do(c.httpClient(), req)
	if err != nil {
		return fmt.Errorf("registry: transport: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	if resp.StatusCode >= 400 {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%w: status %d: %s", ErrInvalid, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		data := callplane.GetBuffer()
		defer data.Release()
		if err := data.FillResponse(resp.Body); err != nil {
			return fmt.Errorf("registry: reading response: %w", err)
		}
		if err := json.Unmarshal(data.B, out); err != nil {
			return fmt.Errorf("registry: decoding: %w", err)
		}
	}
	return nil
}

// Publish registers the entry remotely.
func (c *Client) Publish(ctx context.Context, e Entry) error {
	return c.do(ctx, "Publish", http.MethodPost, "/registry/services", e, nil)
}

// Heartbeat renews the remote lease.
func (c *Client) Heartbeat(ctx context.Context, name string) error {
	return c.do(ctx, "Heartbeat", http.MethodPost, "/registry/services/"+url.PathEscape(name)+"/heartbeat", nil, nil)
}

// Unpublish removes the remote entry.
func (c *Client) Unpublish(ctx context.Context, name string) error {
	return c.do(ctx, "Unpublish", http.MethodDelete, "/registry/services/"+url.PathEscape(name), nil, nil)
}

// Get fetches one entry.
func (c *Client) Get(ctx context.Context, name string) (Entry, error) {
	var e Entry
	err := c.do(ctx, "Get", http.MethodGet, "/registry/services/"+url.PathEscape(name), nil, &e)
	return e, err
}

// Search performs a ranked keyword search.
func (c *Client) Search(ctx context.Context, query string, limit int) ([]Match, error) {
	var out []Match
	path := "/registry/search?q=" + url.QueryEscape(query)
	if limit > 0 {
		path += "&limit=" + strconv.Itoa(limit)
	}
	err := c.do(ctx, "Search", http.MethodGet, path, nil, &out)
	return out, err
}
