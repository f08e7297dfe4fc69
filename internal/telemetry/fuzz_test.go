package telemetry

import (
	"encoding/hex"
	"testing"
)

// refParseTraceParent is the reading ParseTraceParent documents, built
// on encoding/hex: any two-byte version, '-', 32 hex digits of trace ID,
// '-', 16 hex digits of span ID, '-', then flags of at least two bytes;
// either ID all zero rejects.
func refParseTraceParent(s string) (SpanContext, bool) {
	var sc SpanContext
	if len(s) < len("00-")+32+len("-")+16+len("-01") || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return sc, false
	}
	trace, err := hex.DecodeString(s[3:35])
	if err != nil {
		return sc, false
	}
	span, err := hex.DecodeString(s[36:52])
	if err != nil {
		return sc, false
	}
	copy(sc.TraceID[:], trace)
	copy(sc.SpanID[:], span)
	return sc, sc.Valid()
}

// FuzzParseTraceParent holds ParseTraceParent to the encoding/hex
// reference — the same inputs accepted, the same IDs read — and holds
// what it accepts to a round trip through FormatTraceParent. Seeds are
// in testdata/fuzz/FuzzParseTraceParent.
func FuzzParseTraceParent(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		got, ok := ParseTraceParent(s)
		want, wantOK := refParseTraceParent(s)
		if ok != wantOK {
			t.Fatalf("ParseTraceParent(%q) ok = %v, reference %v", s, ok, wantOK)
		}
		if !ok {
			return
		}
		if got != want {
			t.Fatalf("ParseTraceParent(%q) = %+v, reference %+v", s, got, want)
		}
		wire := FormatTraceParent(got)
		if back, ok := ParseTraceParent(wire); !ok || back != got {
			t.Fatalf("round trip of %q through %q gave %+v ok=%v", s, wire, back, ok)
		}
	})
}
