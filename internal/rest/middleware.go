package rest

import (
	"errors"
	"net/http"
	"strconv"

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

// Tracing records a server span per request in t, joining the caller's
// trace when the request carries an X-Soc-Trace header. The span is named
// "METHOD /path". The traced context flows to the handler, so downstream
// client calls become child spans. A nil tracer makes this a no-op
// middleware.
func Tracing(t *telemetry.Tracer) Middleware {
	return func(next HandlerFunc) HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request, p Params) {
			if t == nil {
				next(w, r, p)
				return
			}
			remote, _ := telemetry.FromHTTPHeader(r.Header)
			sp, ctx := t.StartSpanRemote(r.Context(), telemetry.KindServer, r.Method+" "+r.URL.Path, remote)
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
