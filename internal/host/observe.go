package host

import (
	"net/http"
	"time"

	"soc/internal/rest"
	"soc/internal/telemetry"
)

// Tracer exposes the host's span ring, so tests and composition harnesses
// can merge provider-side spans with client-side ones into one trace tree.
func (h *Host) Tracer() *telemetry.Tracer { return h.tracer }

// tracezSpan is the wire form of one recorded span.
type tracezSpan struct {
	Trace       string                 `json:"trace"`
	Span        string                 `json:"span"`
	Parent      string                 `json:"parent,omitempty"`
	Name        string                 `json:"name"`
	Kind        telemetry.Kind         `json:"kind"`
	Target      string                 `json:"target,omitempty"`
	Attempt     int                    `json:"attempt,omitempty"`
	Start       time.Time              `json:"start"`
	Nanos       int64                  `json:"durationNanos"`
	Error       string                 `json:"error,omitempty"`
	Cached      bool                   `json:"cached,omitempty"`
	Annotations []telemetry.Annotation `json:"annotations,omitempty"`
}

// tracezReport is the GET /tracez document.
type tracezReport struct {
	// Recorded counts spans ever recorded; Retained is how many the ring
	// still holds (oldest first in Spans).
	Recorded uint64       `json:"recorded"`
	Retained int          `json:"retained"`
	Spans    []tracezSpan `json:"spans"`
}

// handleTracez dumps the span ring. ?format=tree renders reassembled
// trace trees as text instead of the JSON span list.
func (h *Host) handleTracez(w http.ResponseWriter, r *http.Request, _ rest.Params) {
	spans := h.tracer.Snapshot()
	if r.URL.Query().Get("format") == "tree" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(telemetry.FormatTraces(telemetry.BuildTraces(spans))))
		return
	}
	report := tracezReport{Recorded: h.tracer.Recorded(), Retained: len(spans), Spans: make([]tracezSpan, len(spans))}
	for i, sp := range spans {
		ts := tracezSpan{
			Trace:   sp.TraceID.String(),
			Span:    sp.SpanID.String(),
			Name:    sp.Name,
			Kind:    sp.Kind,
			Target:  sp.Target,
			Attempt: sp.Attempt,
			Start:   sp.Start,
			Nanos:   int64(sp.Duration),
			Error:   sp.Err,
			Cached:  sp.Cached,
		}
		if !sp.Parent.IsZero() {
			ts.Parent = sp.Parent.String()
		}
		if anns := sp.Annotations(); len(anns) > 0 {
			ts.Annotations = append([]telemetry.Annotation(nil), anns...)
		}
		report.Spans[i] = ts
	}
	rest.WriteResponse(w, r, http.StatusOK, report)
}

func (h *Host) handleMetricz(w http.ResponseWriter, r *http.Request, _ rest.Params) {
	rest.WriteResponse(w, r, http.StatusOK, h.instr.Report())
}
