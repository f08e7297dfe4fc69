package telemetry_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"soc/internal/rest"
	"soc/internal/telemetry"
)

// TestReportGolden pins the /metricz document: testdata/metricz.golden.json
// is the body host.handleMetricz served for these four records before the
// host and the front door shared Report (cloud's
// TestFrontDoorMetriczMatchesHost records the same four).
func TestReportGolden(t *testing.T) {
	m := telemetry.NewMetrics()
	m.Record("Calc.Add", 50*time.Microsecond, false)
	m.Record("Calc.Add", 2*time.Second, true)
	m.RecordCached("Calc.Add")
	m.RecordCached("Idle.Op")

	rec := httptest.NewRecorder()
	rest.WriteResponse(rec, httptest.NewRequest(http.MethodGet, "/metricz", nil), http.StatusOK, m.Report())
	want, err := os.ReadFile("testdata/metricz.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("/metricz document drifted from the golden:\n%s", rec.Body.Bytes())
	}
}
