// Package ctxpropagate is a golden-file fixture for the ctxpropagate
// analyzer: functions that already hold a context must not mint fresh
// root contexts or context-free requests, and must build outbound
// requests through the call plane, which injects trace context, rather
// than http.NewRequestWithContext, which silently drops it.
package ctxpropagate

import (
	"context"
	"net/http"
	"time"
)

func process(ctx context.Context) error {
	_ = context.Background()                                               // want `context.Background\(\) inside a function that already holds a context`
	_ = context.TODO()                                                     // want `context.TODO\(\) inside a function that already holds a context`
	req, err := http.NewRequest(http.MethodGet, "http://example.org", nil) // want `http.NewRequest drops the caller's context`
	if err != nil {
		return err
	}
	_ = req
	return nil
}

func handler(w http.ResponseWriter, r *http.Request) {
	ctx := context.Background() // want `context.Background\(\) inside a function that already holds a context`
	_ = ctx
	_ = w
}

func closureInherits(ctx context.Context) func() {
	return func() {
		_ = context.Background() // want `context.Background\(\) inside a function that already holds a context`
	}
}

func traced(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://example.org", nil) // want `http.NewRequestWithContext bypasses the call plane`
	if err != nil {
		return err
	}
	_ = req
	return nil
}

func tracedHandler(w http.ResponseWriter, r *http.Request) {
	req, _ := http.NewRequestWithContext(r.Context(), http.MethodGet, "http://example.org", nil) // want `http.NewRequestWithContext bypasses the call plane`
	_ = req
	_ = w
}

func tracedClosureInherits(ctx context.Context) func() error {
	return func() error {
		_, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://example.org", nil) // want `http.NewRequestWithContext bypasses the call plane`
		return err
	}
}

// Clean cases below: no findings expected.

func rootCaller() error {
	// No inherited context: minting a root here is the correct thing, and
	// with no upstream trace to propagate the raw constructor is fine.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://example.org", nil)
	if err != nil {
		return err
	}
	_ = req
	return nil
}

func detached(ctx context.Context) {
	// The sanctioned detachment: values flow, cancellation does not.
	comp, cancel := context.WithTimeout(context.WithoutCancel(ctx), time.Second)
	defer cancel()
	_ = comp
}

func probe(ctx context.Context) error {
	//soclint:ignore ctxpropagate probes are deliberately outside the trace plane; each probe is its own root event
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://example.org/healthz", nil)
	if err != nil {
		return err
	}
	_ = req
	return nil
}
