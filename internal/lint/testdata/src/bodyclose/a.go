// Package bodyclose is a golden-file fixture for the bodyclose
// analyzer: every http.Response from a client call must be closed or
// handed off within the function that made the call.
package bodyclose

import (
	"io"
	"net/http"

	"soc/internal/callplane"
)

func leaks(c *http.Client, req *http.Request) ([]byte, error) {
	resp, err := c.Do(req) // want `response body never closed`
	if err != nil {
		return nil, err
	}
	return io.ReadAll(resp.Body)
}

func discards(c *http.Client, req *http.Request) {
	_, _ = c.Do(req) // want `response body never closed: result of .* discarded`
}

func bareCall(url string) {
	http.Get(url) // want `response body never closed: result of .* discarded`
}

func leaksGet(url string) error {
	resp, err := http.Get(url) // want `response body never closed`
	if err != nil {
		return err
	}
	_ = resp.StatusCode
	return nil
}

func leaksCallPlane(c *http.Client, req *http.Request) (int, error) {
	resp, err := callplane.Do(c, req) // want `response body never closed`
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// Clean cases below: no findings expected.

func deferredCallPlane(c *http.Client, req *http.Request) ([]byte, error) {
	resp, err := callplane.Do(c, req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

func deferred(c *http.Client, req *http.Request) ([]byte, error) {
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

func direct(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.Body.Close()
}

func returned(c *http.Client, req *http.Request) (*http.Response, error) {
	return c.Do(req)
}

func returnedVar(c *http.Client, req *http.Request) (*http.Response, error) {
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	return resp, nil
}

func handsOff(c *http.Client, req *http.Request, sink func(*http.Response)) error {
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	sink(resp)
	return nil
}

func closedInDefer(c *http.Client, req *http.Request) error {
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	return nil
}
