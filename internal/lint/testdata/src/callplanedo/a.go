// Package callplanedo is a golden-file fixture for the callplanedo
// analyzer: in a binding package a request goes to the client's Transport
// through callplane.Do, never through the http.Client's own methods.
package callplanedo

import (
	"net/http"
	"net/url"
	"strings"
	"time"
)

type binding struct {
	hc *http.Client
}

func (b *binding) exchange(req *http.Request) (*http.Response, error) {
	return b.hc.Do(req) // want `Client\)\.Do runs`
}

func (b *binding) shorthands(u string) {
	_, _ = b.hc.Get(u)                                             // want `Client\)\.Get runs`
	_, _ = b.hc.Head(u)                                            // want `Client\)\.Head runs`
	_, _ = b.hc.Post(u, "application/json", strings.NewReader("")) // want `Client\)\.Post runs`
	_, _ = b.hc.PostForm(u, url.Values{})                          // want `Client\)\.PostForm runs`
}

func defaultClient(u string) {
	_, _ = http.Get(u)                                 // want `net/http\.Get runs`
	_, _ = http.Head(u)                                // want `net/http\.Head runs`
	_, _ = http.Post(u, "text/xml", nil)               // want `net/http\.Post runs`
	_, _ = http.PostForm(u, url.Values{})              // want `net/http\.PostForm runs`
	_, _ = http.DefaultClient.Do(&http.Request{})      // want `Client\)\.Do runs`
	_, _ = (&http.Client{Timeout: time.Second}).Get(u) // want `Client\)\.Get runs`
}

func inAClosure(hc *http.Client, req *http.Request) func() error {
	return func() error {
		_, err := hc.Do(req) // want `Client\)\.Do runs`
		return err
	}
}

// Clean cases below: no findings expected.

type doer struct{}

func (doer) Do(*http.Request) (*http.Response, error) { return nil, nil }
func (doer) Get(string) string                        { return "" }

func otherReceivers(req *http.Request, rt http.RoundTripper, h http.Header) {
	_, _ = doer{}.Do(req)     // a Do that is not http.Client's
	_ = doer{}.Get("x")       // nor is this Get
	_, _ = rt.RoundTrip(req)  // what callplane.Do itself does
	_ = h.Get("Content-Type") // http.Header.Get is not a request
}

func probe(hc *http.Client, req *http.Request) error {
	//soclint:ignore callplanedo fixture: an exchange that wants its redirects followed says so
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	return resp.Body.Close()
}
