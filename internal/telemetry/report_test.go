package telemetry_test

import (
	"bytes"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"soc/internal/rest"
	"soc/internal/telemetry"
)

// TestReportGolden pins the /metricz document: testdata/metricz.golden.json
// is the body the host and the front door both serve for these four
// records (cloud's TestFrontDoorMetriczMatchesHost records the same
// four). Both percentiles are nearest-rank: with two samples p99 is the
// slow one.
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

// TestReportAgreesWithRecords: seeded durations recorded from several
// goroutines into one Metrics come back exactly in the counters, the
// mean and the max, and within one histogram sub-bucket (2^-5) above the
// nearest-rank order statistic in p50 and p99. Cached answers show in
// cacheHits and in no latency field.
func TestReportAgreesWithRecords(t *testing.T) {
	const workers, per = 6, 2000
	type ledger struct {
		samples    []time.Duration
		errs, hits uint64
	}
	m := telemetry.NewMetrics()
	ledgers := make([]ledger, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l, rng := &ledgers[w], rand.New(rand.NewSource(int64(w+1)))
			for i := 0; i < per; i++ {
				if rng.Intn(4) == 0 {
					l.hits++
					m.RecordCached("Calc.Add")
					m.RecordCached("Idle.Op")
					continue
				}
				// Log-uniform over 1µs..~1s.
				d := time.Duration(1e3 * math.Exp(rng.Float64()*13.8))
				failed := rng.Intn(10) == 0
				if failed {
					l.errs++
				}
				l.samples = append(l.samples, d)
				m.Record("Calc.Add", d, failed)
			}
		}()
	}
	wg.Wait()

	var all []time.Duration
	var errs, hits uint64
	for _, l := range ledgers {
		all = append(all, l.samples...)
		errs += l.errs
		hits += l.hits
	}
	slices.Sort(all)
	var sum time.Duration
	for _, d := range all {
		sum += d
	}

	report := m.Report()
	op := report.Operations["Calc.Add"]
	if op.Calls != uint64(len(all)) || op.Errors != errs || op.CacheHits != hits {
		t.Fatalf("counters = %+v, want calls %d errors %d cacheHits %d", op, len(all), errs, hits)
	}
	if want := int64(sum) / int64(len(all)); op.MeanNanos != want {
		t.Fatalf("meanNanos = %d, want %d", op.MeanNanos, want)
	}
	if want := int64(all[len(all)-1]); op.MaxNanos != want {
		t.Fatalf("maxNanos = %d, want %d", op.MaxNanos, want)
	}
	for _, pc := range []struct {
		q   float64
		got int64
	}{{0.50, op.P50Nanos}, {0.99, op.P99Nanos}} {
		exact := int64(all[int(math.Ceil(pc.q*float64(len(all))))-1])
		if pc.got < exact || pc.got-exact > exact/32 {
			t.Fatalf("p%v = %d ns, nearest-rank order statistic %d ns: not within 2^-5 above it",
				100*pc.q, pc.got, exact)
		}
	}
	idle := report.Operations["Idle.Op"]
	if idle.CacheHits != hits || idle.Calls != 0 || idle.MeanNanos != 0 ||
		idle.P50Nanos != 0 || idle.P99Nanos != 0 || idle.MaxNanos != 0 {
		t.Fatalf("cache-only operation = %+v, want hits only", idle)
	}
}
