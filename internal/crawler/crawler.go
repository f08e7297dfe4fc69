// Package crawler implements the service crawler behind the paper's
// service search engine ("We also developed a service directory that lists
// services offered by other service directories and repositories using a
// service crawler that discovers available services online"): it walks
// seed directory pages, extracts links, probes candidates for WSDL or
// REST service descriptions, and feeds confirmed services into a registry.
package crawler

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"regexp"
	"slices"
	"sort"
	"strings"
	"time"

	"soc/internal/callplane"
	"soc/internal/registry"
	"soc/internal/wsdl"
)

// ErrCrawl reports an unusable crawl configuration.
var ErrCrawl = errors.New("crawler: invalid configuration")

// Discovered is one confirmed service found by a crawl.
type Discovered struct {
	// Name is the service name from its description.
	Name string
	// URL is the probed endpoint (the WSDL URL or REST describe URL).
	URL string
	// Kind is "wsdl" or "rest".
	Kind string
	// Namespace is the service namespace, when known.
	Namespace string
	// Doc is the service documentation, when known.
	Doc string
	// Operations are the discovered operation names.
	Operations []string
}

// Config tunes a crawl.
type Config struct {
	// SameHostOnly restricts link following to the seeds' hosts.
	SameHostOnly bool
}

// A crawl fetches at most maxPages directory pages, follows links at
// most maxDepth hops from the seeds, and sends every request through
// httpClient.
const (
	maxPages = 32
	maxDepth = 3
)

var httpClient = &http.Client{Timeout: 10 * time.Second}

var linkRE = regexp.MustCompile(`href\s*=\s*["']([^"']+)["']|\b(https?://[^\s"'<>]+)`)

// ExtractLinks returns the absolute URLs referenced by page, resolving
// relative hrefs against base.
func ExtractLinks(base *url.URL, page string) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range linkRE.FindAllStringSubmatch(page, -1) {
		raw := m[1]
		if raw == "" {
			raw = m[2]
		}
		u, err := url.Parse(strings.TrimSpace(raw))
		if err != nil {
			continue
		}
		abs := base.ResolveReference(u)
		if abs.Scheme != "http" && abs.Scheme != "https" {
			continue
		}
		s := abs.String()
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// looksLikeService classifies a URL as a probe candidate.
func looksLikeService(u string) (kind string, ok bool) {
	lower := strings.ToLower(u)
	switch {
	case strings.Contains(lower, "wsdl"):
		return "wsdl", true
	case strings.Contains(lower, "/services/"):
		return "rest", true
	}
	return "", false
}

// Crawl walks the seed pages, probes candidate service links, and returns
// the confirmed services sorted by URL.
func Crawl(ctx context.Context, seeds []string, cfg Config) ([]Discovered, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("%w: no seeds", ErrCrawl)
	}
	allowedHosts := map[string]bool{}
	type item struct {
		u     string
		depth int
		via   string
	}
	var queue []item
	for _, s := range seeds {
		u, err := url.Parse(s)
		if err != nil {
			return nil, fmt.Errorf("%w: seed %q: %v", ErrCrawl, s, err)
		}
		allowedHosts[u.Host] = true
		queue = append(queue, item{u: s, depth: 0, via: ""})
	}

	visited := map[string]bool{}
	probed := map[string]bool{}
	var found []Discovered
	pages := 0
	for len(queue) > 0 {
		if err := ctx.Err(); err != nil {
			return found, err
		}
		it := queue[0]
		queue = queue[1:]
		if visited[it.u] {
			continue
		}
		visited[it.u] = true

		if kind, ok := looksLikeService(it.u); ok && it.via != "" {
			if !probed[it.u] {
				probed[it.u] = true
				if d, err := probe(ctx, httpClient, it.u, kind); err == nil {
					found = append(found, *d)
				}
			}
			continue
		}
		if pages >= maxPages || it.depth > maxDepth {
			continue
		}
		pages++
		body, base, err := fetchPage(ctx, httpClient, it.u)
		if err != nil {
			continue
		}
		for _, link := range ExtractLinks(base, body) {
			lu, err := url.Parse(link)
			if err != nil {
				continue
			}
			if cfg.SameHostOnly && !allowedHosts[lu.Host] {
				continue
			}
			queue = append(queue, item{u: link, depth: it.depth + 1, via: it.u})
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].URL < found[j].URL })
	return found, nil
}

func fetchPage(ctx context.Context, client *http.Client, u string) (string, *url.URL, error) {
	req, err := callplane.NewRequest(ctx, http.MethodGet, u, nil)
	if err != nil {
		return "", nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", nil, fmt.Errorf("crawler: status %d for %s", resp.StatusCode, u)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return "", nil, err
	}
	return string(data), resp.Request.URL, nil
}

func probe(ctx context.Context, client *http.Client, u, kind string) (*Discovered, error) {
	req, err := callplane.NewRequest(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "application/json, text/xml")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("crawler: probe status %d", resp.StatusCode)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	if kind == "wsdl" || bytes.HasPrefix(bytes.TrimSpace(data), []byte("<")) {
		d, err := wsdl.Parse(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		disc := &Discovered{Name: d.Name, URL: u, Kind: "wsdl", Namespace: d.Namespace, Doc: d.Doc}
		for _, op := range d.Ops {
			disc.Operations = append(disc.Operations, op.Name)
		}
		return disc, nil
	}
	// REST description JSON (the host package's describe document).
	var desc struct {
		Name      string `json:"name"`
		Namespace string `json:"namespace"`
		Doc       string `json:"doc"`
		Ops       []struct {
			Name string `json:"name"`
		} `json:"operations"`
	}
	if err := json.Unmarshal(data, &desc); err != nil || desc.Name == "" {
		return nil, fmt.Errorf("crawler: unrecognized service description at %s", u)
	}
	disc := &Discovered{Name: desc.Name, URL: u, Kind: "rest", Namespace: desc.Namespace, Doc: desc.Doc}
	for _, op := range desc.Ops {
		disc.Operations = append(disc.Operations, op.Name)
	}
	return disc, nil
}

// Entries merges discoveries into one registry entry per service name, in
// order of first discovery. A service found under both bindings gets both
// (sorted), and its endpoint is the REST URL when one was found — the
// /services/<Name> address the host serves — else the WSDL URL.
func Entries(provider string, found []Discovered) []registry.Entry {
	var out []registry.Entry
	index := map[string]int{}
	for _, d := range found {
		i, ok := index[d.Name]
		if !ok {
			i = len(out)
			index[d.Name] = i
			out = append(out, registry.Entry{Name: d.Name, Namespace: d.Namespace, Doc: d.Doc,
				Endpoint: d.URL, Operations: d.Operations, Provider: provider})
		}
		e := &out[i]
		e.Bindings = append(e.Bindings, d.Kind)
		slices.Sort(e.Bindings)
		e.Bindings = slices.Compact(e.Bindings)
		if d.Kind == "rest" {
			e.Endpoint = d.URL
		}
	}
	return out
}

// Feed publishes discovered services, merged by Entries, into a registry
// under the given provider name; it returns how many entries it published.
func Feed(reg *registry.Registry, provider string, found []Discovered) (int, error) {
	entries := Entries(provider, found)
	for i, e := range entries {
		if err := reg.Publish(e); err != nil {
			return i, err
		}
	}
	return len(entries), nil
}
