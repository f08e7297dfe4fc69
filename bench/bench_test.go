package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// tiny is every workload at a scale that fits the tier-1 budget: a 20-entry
// catalog, a two-instance seeded journal, a 0.2 s timed phase.
func tiny(t *testing.T, workload string, seed int64) config {
	t.Helper()
	dir := t.TempDir()
	return config{workload: workload, seed: seed, seconds: 0.2, scale: 0.01, dataDir: dir, outDir: dir}
}

// TestEveryWorkload runs each workload end to end once and per layer twice,
// and checks: every answer right, every metric printed by its name and unit,
// the layer split discriminating, and the same seed giving the same inputs
// and identical traced-phase counts.
func TestEveryWorkload(t *testing.T) {
	// Counts that must repeat exactly. dispatch-light's cache misses do so
	// only at full scale, where the warm-up is long enough to have filled
	// every replica's cache whichever way the balancer's picks fell.
	counts := []string{"cloud.admitted", "respcache.misses_per_op", "telemetry.spans_per_op",
		"wal.fsyncs_per_op", "workflow.records_per_instance", "workflow.compensated_share"}
	share := map[string]map[string]float64{}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			cfg := tiny(t, w.name, 7)
			var layers []result
			for _, mode := range []int{0, 1, 1} {
				defs := endToEnd
				if mode == 1 {
					defs = perLayer
				}
				res, err := runOne(cfg, w, mode)
				if err != nil {
					t.Fatalf("-trace %d: %v", mode, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("-trace %d: correct=%v attempted=%d failed=%d", mode, res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("-trace %d: %d metrics, want %d", mode, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("-trace %d: metric %s missing or in unit %q, want %q", mode, d.name, m.Unit, d.unit)
					}
					if mode == 0 && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must be positive", d.name, m.Value)
					}
				}
				if mode == 1 {
					layers = append(layers, res)
				}
			}
			if _, err := os.Stat(cfg.outDir + "/trace-" + w.name + ".json"); err != nil {
				t.Errorf("no trace dump: %v", err)
			}
			for _, name := range counts {
				if w.name == "dispatch-light" && name == "respcache.misses_per_op" {
					continue
				}
				if a, b := layers[0].Metrics[name].Value, layers[1].Metrics[name].Value; a != b {
					t.Errorf("%s read %v then %v on the same seed", name, a, b)
				}
			}
			root := layers[0].Metrics["trace.root_us"].Value
			share[w.name] = map[string]float64{
				"handler": layers[0].Metrics["handler.self_us"].Value / root,
				"wal":     layers[0].Metrics["wal.self_us"].Value / root,
			}
			if a, b := w.inputsHash(7, cfg.scale), w.inputsHash(7, cfg.scale); a != b {
				t.Errorf("seed 7 hashed to %x and %x", a, b)
			}
			if a, b := w.inputsHash(7, cfg.scale), w.inputsHash(8, cfg.scale); a == b {
				t.Errorf("seeds 7 and 8 generate the same inputs")
			}
		})
	}
	// The layer split must discriminate: the handler is nearly everything
	// on crypto-heavy and nearly nothing on dispatch-light, and the log
	// shows up on the durable workloads only.
	if s := share["crypto-heavy"]["handler"]; s < 0.9 {
		t.Errorf("handler is %.0f%% of a crypto-heavy request, want ≥ 90%%", 100*s)
	}
	if s := share["dispatch-light"]["handler"]; s > 0.2 {
		t.Errorf("handler is %.0f%% of a dispatch-light request, want ≤ 20%%", 100*s)
	}
	for name, durable := range map[string]bool{"dispatch-light": false, "crypto-heavy": false, "workflow-durable": true, "registry-churn": true} {
		if got := share[name]["wal"] > 0; got != durable {
			t.Errorf("%s: wal time present = %v, want %v", name, got, durable)
		}
	}
}

func TestFoldSelfTimes(t *testing.T) {
	us := time.Microsecond
	// client 0..100 ─ cloud 10..90 ─ host 20..70 ─ handler 30..40
	//                                           └ handler 50..55
	// client 200..230 (a cache hit: no handler)  ─ cloud 205..225
	spans := []span{
		{layer: layerClient, parent: -1, op: 0, start: 0, end: 100 * us},
		{layer: layerCloud, parent: 0, op: 0, start: 10 * us, end: 90 * us},
		{layer: layerHost, parent: 1, op: 0, start: 20 * us, end: 70 * us},
		{layer: layerHandler, parent: 2, op: 0, start: 30 * us, end: 40 * us},
		{layer: layerHandler, parent: 2, op: 0, start: 50 * us, end: 55 * us},
		{layer: layerClient, parent: -1, op: 1, start: 200 * us, end: 230 * us},
		{layer: layerCloud, parent: 5, op: 1, start: 205 * us, end: 225 * us},
	}
	b := fold(spans)
	want := map[layer]time.Duration{layerClient: 30 * us, layerCloud: 50 * us, layerHost: 35 * us, layerHandler: 15 * us}
	for l, d := range want {
		if b.self[l] != d {
			t.Errorf("%s self = %v, want %v", layerNames[l], b.self[l], d)
		}
	}
	if b.ops != 2 || b.root != 130*us || b.selfSum() != b.root {
		t.Errorf("ops=%d root=%v self sum=%v, want 2, 130µs, 130µs", b.ops, b.root, b.selfSum())
	}
	if b.calls[layerHandler] != 2 || b.perCall(layerHandler) != 7.5 || b.perOp(b.self[layerHandler]) != 7.5 {
		t.Errorf("handler: %d calls, %.2f us per call, %.2f us per op", b.calls[layerHandler], b.perCall(layerHandler), b.perOp(b.self[layerHandler]))
	}
}

func TestRecorderRejectsCrossedSpans(t *testing.T) {
	r := newRecorder()
	a := r.begin(layerClient)
	b := r.begin(layerCloud)
	r.end(a)
	r.end(b)
	if r.bad == "" {
		t.Error("ending the outer span first went unnoticed")
	}
}

func TestWindowEstimators(t *testing.T) {
	window := 100 * time.Millisecond
	buf, err := newSampleBuf(64)
	if err != nil {
		t.Fatal(err)
	}
	defer buf.free()
	// Completions per window: 3, 1, 5, then a partial window that must not count.
	ends := []int{10, 20, 30, 150, 210, 220, 230, 240, 250, 310}
	for i, ms := range ends {
		if !buf.add(time.Duration(ms)*time.Millisecond, time.Duration(i+1)*time.Microsecond) {
			t.Fatal("buffer full")
		}
	}
	ps := summarize([]*sampleBuf{buf}, 2, 350*time.Millisecond, window)
	if ps.ops != 12 || ps.failed != 2 {
		t.Errorf("ops=%d failed=%d, want 12 and 2", ps.ops, ps.failed)
	}
	if got := ps.windows; len(got) != 3 || got[0] != 3 || got[1] != 1 || got[2] != 5 {
		t.Errorf("windows = %v, want [3 1 5]", got)
	}
	if got := ps.throughput(); got != 40 {
		t.Errorf("throughput = %v ops/s, want 40: the upper quartile of 10, 30 and 50", got)
	}
	// Window medians are 2, 4 and 7 µs; the quiet quartile is 3 µs.
	if got := ps.latency(ps.windowP50); got != 3 {
		t.Errorf("latency p50 = %v us, want 3", got)
	}
	if ps.samples != 9 {
		t.Errorf("%d samples in complete windows, want 9", ps.samples)
	}
	// CPU readings at 100, 200 and 300 ms: 3 ops cost 6 µs, 1 op 5 µs, 5 ops
	// 5 µs; nothing ended between the last two readings.
	marks := []cpuMark{{100 * time.Millisecond, 6000}, {200 * time.Millisecond, 11000},
		{300 * time.Millisecond, 16000}, {305 * time.Millisecond, 16500}}
	if got := cpuPerOp([]*sampleBuf{buf}, marks); len(got) != 3 || got[0] != 2000 || got[1] != 5000 || got[2] != 1000 {
		t.Errorf("CPU ns per op between readings = %v, want [2000 5000 1000]", got)
	}
	if got := (phase{cpuPerOp: []float64{2000, 5000, 1000}}).cpuPerOpQuiet(); got != 1.5 {
		t.Errorf("quiet CPU time per op = %v us, want 1.5", got)
	}
	if got := (phase{phaseStats: phaseStats{ops: 4}, cpu: 10 * time.Microsecond}).cpuPerOpQuiet(); got != 2.5 {
		t.Errorf("CPU time per op of a phase without readings = %v us, want 2.5", got)
	}
	if got := quantile([]uint32{10, 20, 30, 40}, 0.5); got != 25 {
		t.Errorf("median of 10..40 = %v, want 25", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	full, err := newSampleBuf(1)
	if err != nil {
		t.Fatal(err)
	}
	defer full.free()
	if !full.add(0, 0) || full.add(0, 0) {
		t.Error("a one-sample buffer must take exactly one sample")
	}
}

// A repeated step runs its least count however short the budget, and fills
// the budget however small the count.
func TestRepeated(t *testing.T) {
	calls := 0
	once := func() (time.Duration, error) {
		calls++
		time.Sleep(time.Millisecond)
		return time.Duration(calls), nil
	}
	times, err := repeated(3, 1e-9, once)
	if err != nil || len(times) != 3 || times[2] != 3 {
		t.Errorf("least count: %v, %v; want three times", times, err)
	}
	calls = 0
	times, err = repeated(1, 0.2, once) // 20 ms of 1-ms steps
	if err != nil || len(times) < 5 {
		t.Errorf("budget: %d repetitions (%v), want several", len(times), err)
	}
}

// BENCHMARK.json is the contract later PRs are judged by; it must name
// workloads this program has and exactly the metrics it prints.
func TestManifestMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	// The manifest gates a subset: a workload it names must exist here.
	if len(m.Workloads) < 2 {
		t.Fatalf("manifest has %d workloads, the contract needs at least 2", len(m.Workloads))
	}
	for _, w := range m.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("manifest workload %q is not in the program", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("manifest has %d %s metrics, program %d", len(got), kind, len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s metric %d is %s [%s] in the manifest, %s [%s] in the program", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
}
