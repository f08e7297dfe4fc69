package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMonitorReportsAvailability(t *testing.T) {
	stable := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	}))
	defer stable.Close()
	var hits atomic.Int32
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1)%2 == 0 { // every second probe fails, the last one included
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, "ok")
	}))
	defer flaky.Close()
	const unreachable = "http://127.0.0.1:1/nothing"

	var out strings.Builder
	urls := []string{stable.URL, flaky.URL, unreachable, stable.URL}
	if err := monitor(context.Background(), &out, urls, 4, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
		f := strings.Fields(line)
		rows[f[0]] = f[1:]
	}
	if len(rows) != 3 {
		t.Fatalf("want one row per distinct endpoint:\n%s", out.String())
	}
	for _, c := range []struct {
		url, uptime string
		failing     bool
	}{
		{stable.URL, "100%", false},
		{flaky.URL, "50%", true},
		{unreachable, "0%", true},
	} {
		// checks, uptime, mean RTT, then the last error's words.
		row := rows[c.url]
		if len(row) < 3 || row[0] != "4" || row[1] != c.uptime || (len(row) > 3) != c.failing {
			t.Errorf("%s: row %q, want 4 checks at %s, last error present=%v", c.url, row, c.uptime, c.failing)
		}
	}
}
