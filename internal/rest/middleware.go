package rest

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"time"

	"soc/internal/telemetry"
)

// Recovery converts handler panics into 500 responses instead of crashing
// the server — the first dependability mechanism unit 6 teaches.
// http.ErrAbortHandler is re-panicked so deliberate connection aborts
// (e.g. fault injection dropping a request) keep their net/http meaning.
func Recovery() Middleware {
	return func(next HandlerFunc) HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request, p Params) {
			defer func() {
				if rec := recover(); rec != nil {
					if err, ok := rec.(error); ok && errors.Is(err, http.ErrAbortHandler) {
						panic(rec)
					}
					WriteError(w, r, http.StatusInternalServerError, "internal error: %v", rec)
				}
			}()
			next(w, r, p)
		}
	}
}

// Logging writes one line per request to logger (nil uses log.Default()).
//
//soclint:ignore unreached ROADMAP 30(d): queued for deletion with the tests that check it
func Logging(logger *log.Logger) Middleware {
	if logger == nil {
		logger = log.Default()
	}
	return func(next HandlerFunc) HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request, p Params) {
			start := time.Now()
			sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
			next(sw, r, p)
			logger.Printf("%s %s -> %d (%v)", r.Method, r.URL.Path, sw.status, time.Since(start).Round(time.Microsecond))
		}
	}
}

type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (s *statusWriter) WriteHeader(code int) {
	if s.status == 0 || !s.wrote {
		s.status = code
	}
	s.wrote = true
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusWriter) Write(b []byte) (int, error) {
	if !s.wrote {
		s.wrote = true
		if s.status == 0 {
			s.status = http.StatusOK
		}
	}
	return s.ResponseWriter.Write(b)
}

// Authenticator validates a bearer token and returns the principal name.
type Authenticator func(token string) (principal string, ok bool)

type principalKey struct{}

// Principal returns the authenticated principal stored by BearerAuth.
//
//soclint:ignore unreached ROADMAP 30(d): queued for deletion with the tests that check it
func Principal(r *http.Request) (string, bool) {
	v, ok := r.Context().Value(principalKey{}).(string)
	return v, ok
}

// BearerAuth rejects requests without a valid "Authorization: Bearer ..."
// header and stores the principal in the request context.
//
//soclint:ignore unreached ROADMAP 30(d): queued for deletion with the tests that check it
func BearerAuth(auth Authenticator) Middleware {
	return func(next HandlerFunc) HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request, p Params) {
			const prefix = "Bearer "
			h := r.Header.Get("Authorization")
			if len(h) <= len(prefix) || h[:len(prefix)] != prefix {
				WriteError(w, r, http.StatusUnauthorized, "missing bearer token")
				return
			}
			principal, ok := auth(h[len(prefix):])
			if !ok {
				WriteError(w, r, http.StatusUnauthorized, "invalid token")
				return
			}
			ctx := context.WithValue(r.Context(), principalKey{}, principal)
			next(w, r.WithContext(ctx), p)
		}
	}
}

// RateLimit applies a global token bucket: capacity burst, refilled at
// perSecond tokens per second. Exhausted buckets yield 429.
//
//soclint:ignore unreached ROADMAP 30(d): queued for deletion with the tests that check it
func RateLimit(burst int, perSecond float64) Middleware {
	tb := &tokenBucket{tokens: float64(burst), capacity: float64(burst), rate: perSecond, last: time.Now()}
	return func(next HandlerFunc) HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request, p Params) {
			if !tb.allow() {
				WriteError(w, r, http.StatusTooManyRequests, "rate limit exceeded")
				return
			}
			next(w, r, p)
		}
	}
}

type tokenBucket struct {
	mu       sync.Mutex
	tokens   float64
	capacity float64
	rate     float64
	last     time.Time
}

//soclint:ignore unreached ROADMAP 30(d): queued for deletion with the tests that check it
func (tb *tokenBucket) allow() bool {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	now := time.Now()
	tb.tokens += now.Sub(tb.last).Seconds() * tb.rate
	if tb.tokens > tb.capacity {
		tb.tokens = tb.capacity
	}
	tb.last = now
	if tb.tokens >= 1 {
		tb.tokens--
		return true
	}
	return false
}

// Timeout cancels the request context after d; handlers that honor the
// context stop early, and the middleware writes 503 if the deadline
// elapsed before the handler finished writing.
//
//soclint:ignore unreached ROADMAP 30(d): queued for deletion with the tests that check it
func Timeout(d time.Duration) Middleware {
	return func(next HandlerFunc) HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request, p Params) {
			ctx, cancel := context.WithTimeout(r.Context(), d)
			defer cancel()
			done := make(chan struct{})
			sw := &statusWriter{ResponseWriter: w, status: 0}
			go func() {
				defer close(done)
				defer func() {
					if rec := recover(); rec != nil {
						WriteError(sw, r, http.StatusInternalServerError, "internal error: %v", rec)
					}
				}()
				next(sw, r.WithContext(ctx), p)
			}()
			select {
			case <-done:
			case <-ctx.Done():
				<-done // wait for the handler to observe cancellation
				if !sw.wrote {
					WriteError(w, r, http.StatusServiceUnavailable, "request timed out after %v", d)
				}
			}
		}
	}
}

// RequestID stamps each request with a monotonically increasing id header
// (X-Request-ID) for tracing across composed services.
//
//soclint:ignore unreached ROADMAP 30(d): queued for deletion with the tests that check it
func RequestID() Middleware {
	var mu sync.Mutex
	var n uint64
	return func(next HandlerFunc) HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request, p Params) {
			mu.Lock()
			n++
			id := n
			mu.Unlock()
			w.Header().Set("X-Request-ID", fmt.Sprintf("req-%d", id))
			next(w, r, p)
		}
	}
}

// Tracing records a server span per request in t, joining the caller's
// trace when the request carries an X-Soc-Trace header. name derives the
// span name from the request; nil uses "METHOD /path". The traced context
// flows to the handler, so downstream client calls become child spans.
// A nil tracer makes this a no-op middleware.
func Tracing(t *telemetry.Tracer, name func(r *http.Request) string) Middleware {
	return func(next HandlerFunc) HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request, p Params) {
			if t == nil {
				next(w, r, p)
				return
			}
			spanName := r.Method + " " + r.URL.Path
			if name != nil {
				spanName = name(r)
			}
			remote, _ := telemetry.FromHTTPHeader(r.Header)
			sp, ctx := t.StartSpanRemote(r.Context(), telemetry.KindServer, spanName, remote)
			sp.Annotate("binding", "rest")
			sw := &statusWriter{ResponseWriter: w}
			next(sw, r.WithContext(ctx), p)
			if sp != nil && sw.status >= 400 {
				sp.Annotate("status", strconv.Itoa(sw.status))
			}
			sp.End()
		}
	}
}
