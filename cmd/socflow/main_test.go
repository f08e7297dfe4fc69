package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"soc/internal/services"
	"soc/internal/workflow"
)

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		//soclint:ignore errdiscard test helper; body already fully decoded
		_ = resp.Body.Close()
	}()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode %s response: %v", url, err)
	}
	return resp, out
}

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		//soclint:ignore errdiscard test helper; body already fully decoded
		_ = resp.Body.Close()
	}()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("decode %s response: %v", url, err)
	}
	return resp
}

// TestSocflowRestartResume drives the REST surface end to end: start an
// instance to completion, power-cut the journal under a second one, then
// rebuild the server over the same data directory — the journal must
// recover both instances, keep the completed one terminal, and resume the
// cut one to completion over HTTP.
func TestSocflowRestartResume(t *testing.T) {
	dir := t.TempDir()
	srv, orch, err := newServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)

	const ssn, password = "123-45-6789", "Str0ngpass"
	vars := map[string]any{"ssn": ssn, "password": password}

	// A clean instance completes synchronously.
	resp, res := postJSON(t, ts.URL+"/instances/score-check", map[string]any{"id": "loan-ok", "vars": vars})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("start loan-ok: status %d, body %v", resp.StatusCode, res)
	}
	if res["Status"] != workflow.StatusCompleted {
		t.Fatalf("loan-ok result: %v", res)
	}
	// The demo definition's decision must agree with the real services.
	score, err := services.CreditScoreOf(ssn)
	if err != nil {
		t.Fatal(err)
	}
	wantApproved := score >= services.ApprovalThreshold
	if got := res["Vars"].(map[string]any)["approved"]; got != wantApproved {
		t.Errorf("approved = %v, want %v (score %d)", got, wantApproved, score)
	}

	// Power-cut the journal three appends into the next instance: the
	// start request fails, the instance stays pending in the durable log.
	orch.ArmCrash(3, nil)
	resp, res = postJSON(t, ts.URL+"/instances/score-check", map[string]any{"id": "loan-cut", "vars": vars})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("start into a dead journal: status %d, body %v", resp.StatusCode, res)
	}
	ts.Close()

	// "Restart": a fresh server over the same directory recovers both.
	srv2, orch2, err := newServer(dir)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer func() {
		if err := orch2.Close(); err != nil {
			t.Errorf("close recovered journal: %v", err)
		}
	}()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()

	var list []instanceView
	getJSON(t, ts2.URL+"/instances", &list)
	status := map[string]string{}
	for _, iv := range list {
		status[iv.ID] = iv.Status
	}
	if status["loan-ok"] != workflow.StatusCompleted {
		t.Errorf("loan-ok after restart: %q, want completed (list %v)", status["loan-ok"], list)
	}
	if status["loan-cut"] != workflow.StatusPending {
		t.Errorf("loan-cut after restart: %q, want pending (list %v)", status["loan-cut"], list)
	}

	// Resume the cut instance over HTTP; both idempotent invokes may
	// re-issue, completed steps replay from the journal.
	resp, res = postJSON(t, ts2.URL+"/instances/loan-cut/resume", nil)
	if resp.StatusCode != http.StatusOK || res["Status"] != workflow.StatusCompleted {
		t.Fatalf("resume loan-cut: status %d, body %v", resp.StatusCode, res)
	}

	// Audits for both instances must be problem-free.
	for _, id := range []string{"loan-ok", "loan-cut"} {
		var audit struct {
			Problems []string `json:"problems"`
		}
		if resp := getJSON(t, fmt.Sprintf("%s/instances/%s", ts2.URL, id), &audit); resp.StatusCode != http.StatusOK {
			t.Fatalf("audit %s: status %d", id, resp.StatusCode)
		}
		if len(audit.Problems) != 0 {
			t.Errorf("%s audit problems: %v", id, audit.Problems)
		}
	}

	var health struct {
		OK      bool `json:"ok"`
		Pending int  `json:"pending"`
	}
	getJSON(t, ts2.URL+"/healthz", &health)
	if !health.OK || health.Pending != 0 {
		t.Errorf("healthz after resume: %+v", health)
	}
}

// TestSocflowBadRequests pins the REST error contract.
func TestSocflowBadRequests(t *testing.T) {
	srv, orch, err := newServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := orch.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cases := []struct {
		name string
		do   func() (*http.Response, error)
		want int
	}{
		{"start without id", func() (*http.Response, error) {
			return http.Post(ts.URL+"/instances/score-check", "application/json", bytes.NewBufferString(`{"vars":{}}`))
		}, http.StatusBadRequest},
		{"start with a body over the 1 MiB bound", func() (*http.Response, error) {
			body := `{"id":"big","vars":{"ssn":"123-45-6789","password":"` + strings.Repeat("x", 1<<20) + `"}}`
			return http.Post(ts.URL+"/instances/score-check", "application/json", strings.NewReader(body))
		}, http.StatusBadRequest},
		{"start unknown definition", func() (*http.Response, error) {
			return http.Post(ts.URL+"/instances/no-such-def", "application/json", bytes.NewBufferString(`{"id":"x"}`))
		}, http.StatusConflict},
		{"audit unknown instance", func() (*http.Response, error) {
			return http.Get(ts.URL + "/instances/ghost")
		}, http.StatusNotFound},
		{"resume unknown instance", func() (*http.Response, error) {
			return http.Post(ts.URL+"/instances/ghost/resume", "application/json", nil)
		}, http.StatusConflict},
		{"list with wrong method", func() (*http.Response, error) {
			return http.Post(ts.URL+"/instances", "application/json", nil)
		}, http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		resp, err := tc.do()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		//soclint:ignore errdiscard test teardown of an already-judged response
		_ = resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	if ids := orch.Instances(); len(ids) != 0 {
		t.Errorf("rejected requests started instances: %v", ids)
	}
}

// TestSocflowWrongMethodOnAnInstance: a path the routes know, under a
// method none of them takes, is 405 with the methods that path has.
func TestSocflowWrongMethodOnAnInstance(t *testing.T) {
	srv, orch, err := newServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := orch.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/instances/x", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Error(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /instances/x: status %d, want %d", resp.StatusCode, http.StatusMethodNotAllowed)
	}
	if got := resp.Header.Get("Allow"); got != "GET, POST" {
		t.Errorf("DELETE /instances/x: Allow %q, want %q", got, "GET, POST")
	}
}
