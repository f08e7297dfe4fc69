package callplane

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
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
// The deadline is one object (deadlineBody, below) that is the exchange's
// context, its cancel and the guard on the response body: a child of the
// request's own context whose Deadline is now + Timeout. None is made when
// Timeout is zero or the caller's deadline is already the earlier one. It
// is released — Err reads context.Canceled, the caller's context is not
// touched — when the caller has read the body to its end or closed it, or
// the exchange failed.
//
// An exchange that ends in time and on which nobody waited costs that one
// allocation and no runtime timer: Err compares the clock, and the timer
// and the hook on a cancelable parent are armed at the first Done or
// AfterFunc call. A cancelable context derived from it directly
// (http.Transport's WithCancelCause, the front door's queue timeout on the
// wall clock) hangs on its AfterFunc method, as context.propagateCancel
// has asked a foreign parent to since Go 1.21, and needs no goroutine.
//
// Two limits follow from not being a stdlib context. A cancelable context
// derived below a WithValue layer (a span context) does not see that
// method and is watched by the stdlib's own goroutine until that child is
// cancelled; of the sites under a Do in this module (FrontDoor.admit,
// rest.Timeout, http.Transport behind rebaseTransport) only the last one,
// and only below an in-process front door's spans, is in that position.
// And context.Cause on it reads the cause of the nearest cancelable
// ancestor — nil while that ancestor lives — not one of its own; Err is
// what tells.
//
// Do takes req over: it rebinds it to the deadline context in place, so
// the caller must have built req for this call and not use it afterwards.
func Do(hc *http.Client, req *http.Request) (*http.Response, error) {
	rt := hc.Transport
	if rt == nil {
		rt = http.DefaultTransport
	}
	var dl *deadlineBody
	if hc.Timeout > 0 {
		deadline := time.Now().Add(hc.Timeout)
		if cur, ok := req.Context().Deadline(); !ok || deadline.Before(cur) {
			dl = &deadlineBody{parent: req.Context(), deadline: deadline}
			// WithContext inlines, so its copy stays on the stack (as in
			// outbound.bind) and the request is not allocated twice.
			*req = *req.WithContext(dl)
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
		if dl != nil {
			dl.end(context.Canceled)
		}
		return nil, err
	}
	if dl != nil {
		dl.rc, resp.Body = resp.Body, dl
	}
	return resp, nil
}

// deadlineBody is the deadline of one exchange: the context.Context the
// transport sees and the response body the caller reads under it. It ends
// once — at the first read error (EOF included) or Close with
// context.Canceled, at the deadline with context.DeadlineExceeded, or with
// the parent's error — and nothing changes Err after that.
type deadlineBody struct {
	parent   context.Context
	deadline time.Time
	rc       io.ReadCloser // the transport's body; set before Do returns

	mu     sync.Mutex
	err    error         // why it ended; nil while it has not
	done   chan struct{} // nil until somebody waits: see arm
	timer  *time.Timer
	unhook func() bool          // takes parentEnded off the parent
	hooks  map[*func()]struct{} // AfterFunc registrations not yet stopped
}

var _ context.Context = (*deadlineBody)(nil)

// closedChan is Done of a context that ended before anybody waited on it.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

func (d *deadlineBody) Deadline() (time.Time, bool) { return d.deadline, true }

func (d *deadlineBody) Value(key any) any { return d.parent.Value(key) }

// String names the context the way the stdlib's do, and keeps a %v of it
// from reading the fields behind mu.
func (d *deadlineBody) String() string {
	return fmt.Sprintf("%v.callplaneDeadline(%s)", d.parent, d.deadline)
}

// Err does not need the timer: until something ended the context it asks
// the parent and the clock, and what it finds it latches.
func (d *deadlineBody) Err() error {
	d.mu.Lock()
	err := d.err
	d.mu.Unlock()
	if err != nil {
		return err
	}
	if err = d.parent.Err(); err == nil && !time.Now().Before(d.deadline) {
		err = context.DeadlineExceeded
	}
	if err == nil {
		return nil
	}
	return d.end(err)
}

func (d *deadlineBody) Done() <-chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.arm()
	return d.done
}

// arm makes the end of the context an event somebody can wait for: the
// channel, the runtime timer, and the hook on a parent that can be
// cancelled. d.mu is held.
func (d *deadlineBody) arm() {
	if d.done != nil {
		return
	}
	if d.err != nil {
		d.done = closedChan
		return
	}
	d.done = make(chan struct{})
	d.timer = time.AfterFunc(time.Until(d.deadline), d.expire)
	if d.parent.Done() != nil {
		d.unhook = context.AfterFunc(d.parent, d.parentEnded)
	}
}

func (d *deadlineBody) expire() { d.end(context.DeadlineExceeded) }

func (d *deadlineBody) parentEnded() { d.end(d.parent.Err()) }

// AfterFunc is the method context.propagateCancel and context.AfterFunc
// look for on a parent: f runs in its own goroutine once the context has
// ended, unless stop is called first. The caller may hold its own lock
// (propagateCancel holds the child's), so f never runs on its goroutine,
// not even when the context has already ended.
func (d *deadlineBody) AfterFunc(f func()) (stop func() bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.arm()
	if d.err != nil {
		time.AfterFunc(0, f)
		return func() bool { return false }
	}
	if d.hooks == nil {
		d.hooks = make(map[*func()]struct{})
	}
	h := &f
	d.hooks[h] = struct{}{}
	return func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		_, waiting := d.hooks[h]
		delete(d.hooks, h)
		return waiting
	}
}

// end latches err as why the context ended, unless something did before,
// and returns what is latched. The first end closes Done, stops the timer,
// lets go of the parent and starts the registered functions.
func (d *deadlineBody) end(err error) error {
	d.mu.Lock()
	if d.err != nil {
		err = d.err
		d.mu.Unlock()
		return err
	}
	d.err = err
	if d.done != nil {
		close(d.done)
	}
	timer, unhook, hooks := d.timer, d.unhook, d.hooks
	d.timer, d.unhook, d.hooks = nil, nil, nil
	d.mu.Unlock()
	if timer != nil {
		timer.Stop()
	}
	if unhook != nil {
		unhook()
	}
	for h := range hooks {
		time.AfterFunc(0, *h)
	}
	return err
}

func (d *deadlineBody) Read(p []byte) (int, error) {
	n, err := d.rc.Read(p)
	if err != nil {
		d.end(context.Canceled)
	}
	return n, err
}

func (d *deadlineBody) Close() error {
	err := d.rc.Close()
	d.end(context.Canceled)
	return err
}
