package callplane

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Do performs one service exchange: req goes to hc.Transport
// (http.DefaultTransport when nil) exactly once, and hc.Timeout becomes a
// context deadline on the request, covering the exchange and the reading
// of the response body. It is what the binding clients call where an
// http.Client would be asked to Do, and it keeps of http.Client only what
// an invocation wants:
//
//   - kept: the Transport, the Timeout, cancellation through the request's
//     context, and the RoundTripper's ownership of the request body (closed
//     on every path, once more here after a failed exchange — harmless for
//     a body built by Route.NewRequest or Forward, whose Close is
//     idempotent);
//   - dropped: redirects (a 3xx is returned to the caller like any other
//     status, never re-issued), the cookie Jar and CheckRedirect (not
//     consulted), and the *url.Error wrapper — the transport's error comes
//     back as it is, so a timeout satisfies
//     errors.Is(err, context.DeadlineExceeded).
//
// The deadline is a context.WithDeadline on the request's own context, and
// none is added when Timeout is zero or the caller's deadline is already
// the earlier one. A stdlib context on purpose: a hand-made Context type as
// the parent would make every cancelable child derived further down (the
// front door's queue timeout) start a goroutine to watch it. The deadline
// is released when the caller has read the body to its end or closed it.
//
// Do takes req over: it rebinds it to the deadline context in place, so
// the caller must have built req for this call and not use it afterwards.
func Do(hc *http.Client, req *http.Request) (*http.Response, error) {
	rt := hc.Transport
	if rt == nil {
		rt = http.DefaultTransport
	}
	var cancel context.CancelFunc
	if hc.Timeout > 0 {
		deadline := time.Now().Add(hc.Timeout)
		if cur, ok := req.Context().Deadline(); !ok || deadline.Before(cur) {
			var ctx context.Context
			ctx, cancel = context.WithDeadline(req.Context(), deadline)
			// WithContext inlines, so its copy stays on the stack (as in
			// outbound.bind) and the request is not allocated twice.
			*req = *req.WithContext(ctx)
		}
	}
	resp, err := rt.RoundTrip(req)
	if err == nil && resp == nil {
		err = fmt.Errorf("callplane: %T returned neither a response nor an error", rt)
	}
	if err != nil {
		if req.Body != nil {
			_ = req.Body.Close()
		}
		if cancel != nil {
			cancel()
		}
		return nil, err
	}
	if cancel != nil {
		resp.Body = &deadlineBody{rc: resp.Body, cancel: cancel}
	}
	return resp, nil
}

// deadlineBody is a response body read under Do's deadline: the deadline's
// timer is released at the first read error (EOF included) or at Close,
// whichever the caller reaches first.
type deadlineBody struct {
	rc     io.ReadCloser
	cancel context.CancelFunc
}

func (b *deadlineBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	if err != nil {
		b.cancel()
	}
	return n, err
}

func (b *deadlineBody) Close() error {
	err := b.rc.Close()
	b.cancel()
	return err
}
