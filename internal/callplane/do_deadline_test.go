package callplane

import (
	"context"
	"errors"
	"io"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"
)

// exchangeUnder runs one Do under timeout below parent and returns the
// deadline it made: the transport's context and the response's body.
func exchangeUnder(t *testing.T, parent context.Context, timeout time.Duration) *deadlineBody {
	t.Helper()
	var seen context.Context
	hc := &http.Client{Timeout: timeout, Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		seen = r.Context()
		return okResponse("answer"), nil
	})}
	req, err := NewRequest(parent, http.MethodGet, "http://svc.test/x", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := Do(hc, req)
	if err != nil {
		t.Fatal(err)
	}
	dl, ok := resp.Body.(*deadlineBody)
	if !ok || seen != context.Context(dl) {
		t.Fatalf("body %T and context %T are not the one deadline", resp.Body, seen)
	}
	return dl
}

// armed reports whether anything made the deadline an event: its channel,
// its runtime timer or its hook on the parent.
func (d *deadlineBody) armed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.done != nil || d.timer != nil || d.unhook != nil
}

func waitDone(t *testing.T, ctx context.Context, what string) {
	t.Helper()
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: Done still open after 5 s", what)
	}
}

// What a context.Context owes its users, row by row.
func TestDoDeadlineConformance(t *testing.T) {
	const soon = 20 * time.Millisecond

	t.Run("Deadline is now plus Timeout", func(t *testing.T) {
		start := time.Now()
		dl := exchangeUnder(t, context.Background(), time.Minute)
		defer dl.Close()
		at, ok := dl.Deadline()
		if lo, hi := start.Add(time.Minute), time.Now().Add(time.Minute); !ok || at.Before(lo) || at.After(hi) {
			t.Fatalf("Deadline = %v, %v; want within [%v, %v]", at, ok, lo, hi)
		}
	})

	t.Run("Err turns DeadlineExceeded though nobody asked for Done", func(t *testing.T) {
		dl := exchangeUnder(t, context.Background(), soon)
		defer dl.Close()
		if err := dl.Err(); err != nil {
			t.Fatalf("Err = %v before the deadline", err)
		}
		at, _ := dl.Deadline()
		time.Sleep(time.Until(at) + time.Millisecond)
		if dl.armed() {
			t.Fatal("armed, though only Err was called")
		}
		if err := dl.Err(); err != context.DeadlineExceeded {
			t.Fatalf("Err = %v past the deadline, want DeadlineExceeded", err)
		}
		// Done and Err agree, whoever is asked first.
		waitDone(t, dl, "expired, found by Err")
	})

	t.Run("Done closes at the deadline", func(t *testing.T) {
		dl := exchangeUnder(t, context.Background(), soon)
		defer dl.Close()
		done := dl.Done()
		select {
		case <-done:
			t.Fatal("Done closed at once")
		default:
		}
		waitDone(t, dl, "20 ms Timeout")
		if at, _ := dl.Deadline(); time.Now().Before(at) {
			t.Fatal("Done closed before the deadline")
		}
		if err := dl.Err(); err != context.DeadlineExceeded {
			t.Fatalf("Err = %v, want DeadlineExceeded", err)
		}
		if dl.Done() != done {
			t.Fatal("Done returned a second channel")
		}
	})

	t.Run("parent cancelled first", func(t *testing.T) {
		for _, waiting := range []bool{false, true} {
			parent, cancel := context.WithCancelCause(context.Background())
			dl := exchangeUnder(t, parent, time.Minute)
			if waiting {
				dl.Done()
			}
			cancel(errors.New("caller left"))
			if waiting {
				waitDone(t, dl, "parent cancelled")
			}
			if err := dl.Err(); err != context.Canceled {
				t.Fatalf("waiting=%v: Err = %v, want the parent's Canceled", waiting, err)
			}
			// The documented limit, kept honest: the cause is the ancestor's.
			if cause := context.Cause(dl); cause == nil || cause.Error() != "caller left" {
				t.Fatalf("Cause = %v, want the ancestor's", cause)
			}
			_ = dl.Close()
		}
	})

	t.Run("released", func(t *testing.T) {
		parent, cancel := context.WithCancel(context.Background())
		defer cancel()
		dl := exchangeUnder(t, parent, time.Minute)
		done := dl.Done()
		if _, err := io.ReadAll(dl); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
		default:
			t.Fatal("Done still open after the body's EOF")
		}
		if err := dl.Err(); err != context.Canceled {
			t.Fatalf("Err = %v, want Canceled", err)
		}
		if parent.Err() != nil {
			t.Fatal("releasing the deadline cancelled the caller's context")
		}
		if dl.timer != nil || dl.unhook != nil {
			t.Fatal("timer or parent hook kept after the release")
		}
	})

	t.Run("Err never changes once set", func(t *testing.T) {
		parent, cancel := context.WithCancel(context.Background())
		expired := exchangeUnder(t, parent, time.Nanosecond)
		time.Sleep(time.Millisecond)
		released := exchangeUnder(t, parent, soon)
		_ = released.Close()
		if expired.Err() != context.DeadlineExceeded || released.Err() != context.Canceled {
			t.Fatalf("Err = %v and %v", expired.Err(), released.Err())
		}
		_ = expired.Close()
		cancel()
		time.Sleep(soon + time.Millisecond)
		if expired.Err() != context.DeadlineExceeded {
			t.Fatalf("Close or the parent rewrote an expired Err to %v", expired.Err())
		}
		if released.Err() != context.Canceled {
			t.Fatalf("the clock rewrote a released Err to %v", released.Err())
		}
	})

	t.Run("AfterFunc stop returns true exactly once", func(t *testing.T) {
		dl := exchangeUnder(t, context.Background(), time.Minute)
		ran := make(chan struct{}, 2)
		stopped := dl.AfterFunc(func() { ran <- struct{}{} })
		kept := dl.AfterFunc(func() { ran <- struct{}{} })
		if !stopped() || stopped() {
			t.Fatal("stop of a waiting function: want true, then false")
		}
		_ = dl.Close()
		select {
		case <-ran:
		case <-time.After(5 * time.Second):
			t.Fatal("the function left registered did not run")
		}
		if kept() {
			t.Fatal("stop returned true for a function that has run")
		}
		select {
		case <-ran:
			t.Fatal("the stopped function ran")
		case <-time.After(10 * time.Millisecond):
		}
	})

	t.Run("AfterFunc on an ended context runs elsewhere", func(t *testing.T) {
		dl := exchangeUnder(t, context.Background(), time.Minute)
		_ = dl.Close()
		// propagateCancel registers holding the child's lock, which the
		// function takes: run inline, this would never return.
		var held sync.Mutex
		ran := make(chan struct{})
		held.Lock()
		stop := dl.AfterFunc(func() {
			held.Lock()
			defer held.Unlock()
			close(ran)
		})
		held.Unlock()
		select {
		case <-ran:
		case <-time.After(5 * time.Second):
			t.Fatal("the function never ran")
		}
		if stop() {
			t.Fatal("stop returned true for a function that has run")
		}
	})
}

// A cancelable child derived from the deadline hangs on its AfterFunc
// method: it ends with the deadline, and no goroutine watches in between.
func TestDoDeadlineCancelsChildrenWithoutWatchers(t *testing.T) {
	const exchanges = 1000
	before := runtime.NumGoroutine()
	children := make([]context.Context, exchanges)
	for i := range children {
		dl := exchangeUnder(t, context.Background(), 150*time.Millisecond)
		child, cancel := context.WithCancel(dl)
		defer cancel()
		children[i] = child
	}
	// A watcher per child would stand at before + 1000 here.
	if now := runtime.NumGoroutine(); now > before+50 {
		t.Fatalf("%d goroutines with %d children pending, %d before", now, exchanges, before)
	}
	for _, child := range children {
		waitDone(t, child, "child of an expiring deadline")
		if err := child.Err(); err != context.DeadlineExceeded {
			t.Fatalf("child Err = %v, want DeadlineExceeded", err)
		}
	}
	for start := time.Now(); runtime.NumGoroutine() > before+50; time.Sleep(time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("%d goroutines left after %d exchanges, %d before", runtime.NumGoroutine(), exchanges, before)
		}
	}
}

// The point of the type: an exchange that ends in time, whose transport
// and handler read Err, Deadline and Value but wait on nothing, made no
// channel, armed no runtime timer and hooked nothing onto its parent.
func TestDoDeadlineInTimeArmsNoTimer(t *testing.T) {
	type ctxKey struct{}
	parent, cancel := context.WithCancel(context.WithValue(context.Background(), ctxKey{}, "caller"))
	defer cancel()
	hc := &http.Client{Timeout: time.Minute, Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		ctx := r.Context()
		if _, ok := ctx.Deadline(); !ok || ctx.Err() != nil || ctx.Value(ctxKey{}) != "caller" {
			t.Errorf("context under Timeout: Err %v, Value %v", ctx.Err(), ctx.Value(ctxKey{}))
		}
		return okResponse("answer"), nil
	})}
	req, _ := NewRequest(parent, http.MethodGet, "http://svc.test/x", nil)
	resp, err := Do(hc, req)
	if err != nil {
		t.Fatal(err)
	}
	dl := resp.Body.(*deadlineBody)
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if dl.armed() {
		t.Fatalf("in-time exchange armed: done %v, timer %v, parent hook %v", dl.done != nil, dl.timer != nil, dl.unhook != nil)
	}
	if dl.Err() != context.Canceled {
		t.Fatalf("Err = %v after the release", dl.Err())
	}
	// Asked only now, Done is closed already and still arms nothing.
	waitDone(t, dl, "released before anybody waited")
	if dl.timer != nil || dl.unhook != nil {
		t.Fatal("Done on an ended context armed a timer")
	}
}

// Everything that can end a deadline, at once: the clock, the caller's
// cancel, the body's EOF and Close, with waiters, Err readers and child
// contexts arriving throughout. Run under -race (make flake).
func TestDoDeadlineHammer(t *testing.T) {
	for i := 0; i < 200; i++ {
		parent, cancel := context.WithCancel(context.Background())
		dl := exchangeUnder(t, parent, time.Duration(i%4)*100*time.Microsecond+time.Nanosecond)
		var wg sync.WaitGroup
		for _, f := range []func(){
			func() { _, _ = io.ReadAll(dl) },
			func() { _ = dl.Close() },
			func() { <-dl.Done() },
			func() {
				for dl.Err() == nil {
					runtime.Gosched()
				}
			},
			func() {
				child, stop := context.WithTimeout(dl, time.Minute)
				defer stop()
				<-child.Done()
			},
			func() { defer dl.AfterFunc(func() {})() },
			func() {
				if i%2 == 0 {
					cancel()
				}
			},
		} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f()
			}()
		}
		wg.Wait()
		cancel()
		first := dl.Err()
		if first == nil || dl.Err() != first {
			t.Fatalf("round %d: Err = %v, then %v", i, first, dl.Err())
		}
		if dl.timer != nil || dl.unhook != nil || len(dl.hooks) != 0 {
			t.Fatalf("round %d: ended with timer, parent hook or %d functions kept", i, len(dl.hooks))
		}
	}
}
