package crawler

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"soc/internal/core"
	"soc/internal/host"
	"soc/internal/registry"
	"soc/internal/wsdl"
)

func testWSDL(t *testing.T) []byte {
	t.Helper()
	svc, err := core.NewService("Weather", "http://soc.example/weather", "weather forecasts")
	if err != nil {
		t.Fatal(err)
	}
	svc.MustAddOperation(core.Operation{
		Name:   "Forecast",
		Input:  []core.Param{{Name: "city", Type: core.String}},
		Output: []core.Param{{Name: "celsius", Type: core.Float}},
		Handler: func(context.Context, core.Values) (core.Values, error) {
			return core.Values{"celsius": 21.0}, nil
		},
	})
	doc, err := wsdl.Generate(svc, "http://soc.example/weather/soap")
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// newDirectorySite builds a small site: an index page linking to a WSDL, a
// REST service description (via a real Host), a nested page, and junk.
func newDirectorySite(t *testing.T) *httptest.Server {
	t.Helper()
	wsdlDoc := testWSDL(t)

	h := host.New()
	echo, _ := core.NewService("Echo", "http://soc.example/echo", "echo service")
	echo.MustAddOperation(core.Operation{
		Name:   "Echo",
		Input:  []core.Param{{Name: "text", Type: core.String}},
		Output: []core.Param{{Name: "echo", Type: core.String}},
		Handler: func(_ context.Context, in core.Values) (core.Values, error) {
			return core.Values{"echo": in.Str("text")}, nil
		},
	})
	h.MustMount(echo)

	mux := http.NewServeMux()
	var ts *httptest.Server
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `<html><body>
			<a href="/dir/weather.wsdl">Weather WSDL</a>
			<a href="/more.html">more services</a>
			<a href="/broken.wsdl">broken</a>
			<a href="mailto:admin@example.com">contact</a>
		</body></html>`)
	})
	mux.HandleFunc("/more.html", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `<html><body><p>REST: %s/services/Echo</p></body></html>`, ts.URL)
	})
	mux.HandleFunc("/dir/weather.wsdl", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/xml")
		_, _ = w.Write(wsdlDoc)
	})
	mux.HandleFunc("/broken.wsdl", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "this is not xml at all")
	})
	mux.Handle("/services/", h)
	ts = httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func TestExtractLinks(t *testing.T) {
	base, _ := url.Parse("http://site.example/dir/index.html")
	page := `<a href="a.wsdl">a</a> <a href='/abs/b'>b</a>
		plain http://other.example/x and <a href="ftp://skip/this">skip</a>
		dup <a href="a.wsdl">again</a>`
	links := ExtractLinks(base, page)
	want := []string{
		"http://site.example/dir/a.wsdl",
		"http://site.example/abs/b",
		"http://other.example/x",
	}
	if len(links) != len(want) {
		t.Fatalf("links = %v", links)
	}
	for i := range want {
		if links[i] != want[i] {
			t.Errorf("links[%d] = %q, want %q", i, links[i], want[i])
		}
	}
}

func TestCrawlDiscoversServices(t *testing.T) {
	ts := newDirectorySite(t)
	found, err := Crawl(context.Background(), []string{ts.URL + "/"}, Config{SameHostOnly: true})
	if err != nil {
		t.Fatalf("Crawl: %v", err)
	}
	byName := map[string]Discovered{}
	for _, d := range found {
		byName[d.Name] = d
	}
	w, ok := byName["Weather"]
	if !ok {
		t.Fatalf("Weather not discovered; found %v", found)
	}
	if w.Kind != "wsdl" || w.Namespace != "http://soc.example/weather" || len(w.Operations) != 1 {
		t.Errorf("Weather = %+v", w)
	}
	e, ok := byName["Echo"]
	if !ok {
		t.Fatalf("Echo not discovered; found %v", found)
	}
	if e.Kind != "rest" || e.Operations[0] != "Echo" {
		t.Errorf("Echo = %+v", e)
	}
	// The broken WSDL must not appear.
	if len(found) != 2 {
		t.Errorf("found %d services, want 2: %v", len(found), found)
	}
}

func TestCrawlValidation(t *testing.T) {
	if _, err := Crawl(context.Background(), nil, Config{}); err == nil {
		t.Error("no seeds accepted")
	}
	if _, err := Crawl(context.Background(), []string{"::bad::"}, Config{}); err == nil {
		t.Error("bad seed accepted")
	}
}

// TestCrawlRespectsMaxPages: a seed page linking to more pages than the
// cap gets the crawl to fetch no more than maxPages of them.
func TestCrawlRespectsMaxPages(t *testing.T) {
	var pages atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		pages.Add(1)
		if r.URL.Path == "/" {
			for i := range maxPages + 8 {
				fmt.Fprintf(w, `<a href="/p%d.html">p%d</a>`, i, i)
			}
		}
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	if _, err := Crawl(context.Background(), []string{ts.URL + "/"}, Config{}); err != nil {
		t.Fatal(err)
	}
	if got := pages.Load(); got != maxPages {
		t.Errorf("fetched %d pages, want the cap of %d", got, maxPages)
	}
}

// TestCrawlRespectsMaxDepth: along an endless chain of pages the crawl
// fetches the seed and the pages up to maxDepth links away, no further.
func TestCrawlRespectsMaxDepth(t *testing.T) {
	var mu sync.Mutex
	var fetched []string
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		fetched = append(fetched, r.URL.Path)
		fmt.Fprintf(w, `<a href="/d%d.html">next</a>`, len(fetched))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	if _, err := Crawl(context.Background(), []string{ts.URL + "/"}, Config{}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []string{"/", "/d1.html", "/d2.html", "/d3.html"}; !slices.Equal(fetched, want) {
		t.Errorf("fetched %v, want %v", fetched, want)
	}
}

func TestCrawlSameHostOnly(t *testing.T) {
	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("crossed to another host")
	}))
	defer other.Close()
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `<a href="%s/services/x">offsite</a>`, other.URL)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	if _, err := Crawl(context.Background(), []string{ts.URL + "/"}, Config{SameHostOnly: true}); err != nil {
		t.Fatal(err)
	}
}

func TestFeedPublishesIntoRegistry(t *testing.T) {
	ts := newDirectorySite(t)
	found, err := Crawl(context.Background(), []string{ts.URL + "/"}, Config{SameHostOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	n, err := Feed(reg, "crawler", found)
	if err != nil || n != 2 {
		t.Fatalf("Feed: %d %v", n, err)
	}
	matches, err := reg.Search("weather forecast", 0)
	if err != nil || len(matches) == 0 || matches[0].Entry.Name != "Weather" {
		t.Errorf("search after feed: %v %v", matches, err)
	}
	if matches[0].Entry.Provider != "crawler" {
		t.Errorf("provider = %q", matches[0].Entry.Provider)
	}
}

func TestFeedMergesBindingsByName(t *testing.T) {
	found := []Discovered{
		{Name: "Calc", URL: "http://h/services/Calc", Kind: "rest", Operations: []string{"Add"}},
		{Name: "Calc", URL: "http://h/services/Calc?wsdl", Kind: "wsdl", Operations: []string{"Add"}},
		{Name: "Weather", URL: "http://h/weather.wsdl", Kind: "wsdl"},
	}
	// Feed merges in any order: try the WSDL sighting first, too.
	for _, order := range [][]Discovered{found, {found[1], found[0], found[2]}} {
		reg := registry.New()
		n, err := Feed(reg, "crawler", order)
		if err != nil || n != 2 {
			t.Fatalf("Feed = %d, %v; want 2 distinct entries", n, err)
		}
		calc, err := reg.Get("Calc")
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(calc.Bindings, []string{"rest", "wsdl"}) || calc.Endpoint != "http://h/services/Calc" {
			t.Errorf("Calc = bindings %v endpoint %q, want [rest wsdl] at the REST URL", calc.Bindings, calc.Endpoint)
		}
		if w, err := reg.Get("Weather"); err != nil || w.Endpoint != "http://h/weather.wsdl" {
			t.Errorf("Weather = %+v, %v", w, err)
		}
	}
}

func TestLooksLikeService(t *testing.T) {
	cases := []struct {
		u    string
		kind string
		ok   bool
	}{
		{"http://x/a.wsdl", "wsdl", true},
		{"http://x/svc?WSDL", "wsdl", true},
		{"http://x/services/Echo", "rest", true},
		{"http://x/page.html", "", false},
	}
	for _, c := range cases {
		kind, ok := looksLikeService(c.u)
		if kind != c.kind || ok != c.ok {
			t.Errorf("looksLikeService(%q) = %q,%v", c.u, kind, ok)
		}
	}
}

func TestCrawlContextCancel(t *testing.T) {
	ts := newDirectorySite(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Crawl(ctx, []string{ts.URL + "/"}, Config{}); err == nil {
		t.Error("canceled crawl succeeded")
	}
}
