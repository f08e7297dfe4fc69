package webapp

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"soc/internal/session"
	"soc/internal/vtime"
)

// TestPostbackRoundTrip models the classic ASP.NET-style postback the
// paper's Figure 4 project teaches: a form page carries its state in a
// signed viewstate token, the POST presents the token plus user input,
// and the server validates both — tamper breaks the token, bad input
// fails field validation, and valid postbacks see the prior state.
func TestPostbackRoundTrip(t *testing.T) {
	vs, err := session.NewViewState([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatalf("viewstate: %v", err)
	}
	form, err := NewForm(
		Field{Name: "ssn", Required: true, Pattern: PatternSSN},
		Field{Name: "dob", Required: true, Pattern: PatternDate, Validate: ValidDate},
	)
	if err != nil {
		t.Fatalf("form: %v", err)
	}
	// Each postback arrives in a context whose clock reads 2026-08-06.
	ctx := vtime.WithClock(context.Background(), vtime.NewVirtual(time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC)))

	// "Render" the page: server state sealed into the token.
	token, err := vs.Encode(map[string]string{"step": "2", "applicant": "alice"})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}

	postback := func(token, ssn, dob string) (map[string]string, map[string]string, Errors) {
		t.Helper()
		body := url.Values{"__viewstate": {token}, "ssn": {ssn}, "dob": {dob}}
		req := httptest.NewRequestWithContext(ctx, http.MethodPost, "/apply", strings.NewReader(body.Encode()))
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		state, vsErr := vs.Decode(req.PostFormValue("__viewstate"))
		if vsErr != nil {
			return nil, nil, Errors{"__viewstate": vsErr.Error()}
		}
		clean, errs := form.ValidateRequest(req)
		return state, clean, errs
	}

	// Valid postback: token state survives the round trip, fields pass.
	state, clean, errs := postback(token, "123-45-6789", "2001-02-03")
	if !errs.Ok() {
		t.Fatalf("valid postback rejected: %v", errs)
	}
	if state["step"] != "2" || state["applicant"] != "alice" {
		t.Fatalf("viewstate lost across the round trip: %v", state)
	}
	if clean["ssn"] != "123-45-6789" {
		t.Fatalf("clean values: %v", clean)
	}

	// Bad field input fails validation but the token still decodes.
	state, _, errs = postback(token, "not-an-ssn", "2001-02-03")
	if errs.Ok() || errs["ssn"] == "" {
		t.Fatalf("malformed ssn accepted: %v", errs)
	}
	if state["applicant"] != "alice" {
		t.Fatalf("state lost on validation failure: %v", state)
	}

	// Future date fails the semantic validator, not just the pattern.
	_, _, errs = postback(token, "123-45-6789", "2031-01-01")
	if errs.Ok() || !strings.Contains(errs["dob"], "future") {
		t.Fatalf("future date accepted: %v", errs)
	}

	// A tampered token must be rejected outright.
	_, _, errs = postback(token[:len(token)-2]+"zz", "123-45-6789", "2001-02-03")
	if errs.Ok() || errs["__viewstate"] == "" {
		t.Fatalf("tampered viewstate accepted: %v", errs)
	}
}

// TestFormMissingAndUnparsable pins the two remaining request-level
// error paths of ValidateRequest.
func TestFormMissingAndUnparsable(t *testing.T) {
	form, err := NewForm(Field{Name: "email", Required: true, Pattern: PatternEmail})
	if err != nil {
		t.Fatalf("form: %v", err)
	}
	req := httptest.NewRequest(http.MethodPost, "/x", strings.NewReader(""))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	if _, errs := form.ValidateRequest(req); errs.Ok() || errs["email"] == "" {
		t.Fatalf("missing required field accepted: %v", errs)
	}

	bad := httptest.NewRequest(http.MethodPost, "/x", strings.NewReader("%zz=1"))
	bad.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	if _, errs := form.ValidateRequest(bad); errs.Ok() || errs["_form"] == "" {
		t.Fatalf("unparsable body accepted: %v", errs)
	}
}
