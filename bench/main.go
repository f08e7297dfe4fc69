// Command bench is the repository's one performance benchmark: four
// closed-loop workloads over the SOC stack assembled from its public
// constructors, seven bounded end-to-end metrics, and a per-layer budget
// traced from outside. See README.md in this directory.
//
//	go run ./bench                                  # everything, human-readable
//	go run ./bench -workload crypto-heavy -seed 7 -seconds 30 -trace 0
//
// With -workload the last line of standard output is one JSON object:
// the end-to-end metrics for -trace 0, the per-layer metrics for -trace 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int     // 0: end-to-end run, 1: per-layer run, -1: both
	scale    float64 // shrinks the fixed sizes (catalog, seeded journal); tests use it
	dataDir  string  // where the durable workloads write
	outDir   string  // where the trace dump goes
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the stack sees; BENCHMARK.json bounds
// each. error_rate is printed too but travels as failed ÷ attempted: its
// expected value is 0, which a bounded metric may not be.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"throughput_ops_s", "ops/s"}, {"latency_p50_us", "us"},
	{"latency_p99_us", "us"}, {"cpu_us_per_op", "us"}, {"allocs_per_op", "count"}, {"recover_ms", "ms"},
}

// perLayer are the single-layer metrics, prefix = module. A layer a
// workload does not touch reads 0 there.
var perLayer = []metricDef{
	{"hostclient.self_us", "us"}, {"cloud.self_us", "us"}, {"host.self_us", "us"}, {"handler.self_us", "us"},
	{"security.pbkdf2_us", "us"}, {"security.pbkdf2_allocs", "count"},
	{"cloud.admitted", "count"}, {"cloud.shed", "count"}, {"cloud.errored", "count"}, {"cloud.pick_imbalance", "ratio"},
	{"respcache.hit_ratio", "ratio"}, {"respcache.misses_per_op", "count"}, {"respcache.hit_ns", "ns"},
	{"soap.decode_ns", "ns"}, {"soap.decode_allocs", "count"}, {"soap.encode_ns", "ns"}, {"soap.encode_allocs", "count"},
	{"callplane.chain_ns", "ns"}, {"core.invoke_ns", "ns"},
	{"telemetry.spans_per_op", "count"}, {"telemetry.record_ns", "ns"}, {"telemetry.span_ns", "ns"},
	{"workflow.self_us", "us"}, {"workflow.invoker_us", "us"}, {"workflow.records_per_instance", "count"},
	{"workflow.compensated_share", "ratio"}, {"workflow.run_plain_us", "us"}, {"workflow.start_memfs_us", "us"},
	{"wal.self_us", "us"}, {"wal.fsyncs_per_op", "count"}, {"wal.fsync_us", "us"}, {"wal.write_us", "us"},
	{"wal.dirsync_us", "us"}, {"wal.bytes_per_op", "bytes"}, {"wal.snapshot_bytes_per_op", "bytes"},
	{"wal.segments_created", "count"}, {"wal.dir_bytes_at_end", "bytes"},
	{"wal.append_osfs_us", "us"}, {"wal.append_memfs_ns", "ns"},
	{"registry.client_self_us", "us"}, {"registry.api_self_us", "us"}, {"registry.search_us", "us"},
	{"registry.get_us", "us"}, {"registry.mutate_us", "us"}, {"registry.search_direct_us", "us"},
	{"proc.cpu_us_per_op", "us"}, {"proc.bytes_per_op", "bytes"}, {"scale.speedup_vs_serial", "ratio"},
	{"serial_us_per_op", "us"}, {"trace.root_us", "us"}, {"trace.unattributed_pct", "%"}, {"trace.overhead_pct", "%"},
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "one of dispatch-light, crypto-heavy, workflow-durable, registry-churn (default: all four)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "length of the measured phase")
	flag.IntVar(&cfg.trace, "trace", -1, "0: end-to-end metrics, 1: per-layer metrics (default: both)")
	flag.Float64Var(&cfg.scale, "scale", 1, "multiplies the fixed sizes (catalog entries, seeded journal)")
	flag.StringVar(&cfg.dataDir, "data", "", "directory for the durable workloads (default: a fresh one under .bench_build, removed on exit)")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.seconds <= 0 || cfg.scale <= 0 {
		return fmt.Errorf("-seconds and -scale must be positive")
	}
	names := []string{cfg.workload}
	if cfg.workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	if cfg.dataDir == "" {
		cfg.dataDir = filepath.Join(".bench_build", fmt.Sprintf("data-%d", os.Getpid()))
		defer os.RemoveAll(cfg.dataDir) //soclint:ignore errdiscard leftover scratch data is harmless and there is nobody left to tell
	}
	if cfg.outDir == "" {
		cfg.outDir = filepath.Join(".bench_build", "out")
	}
	modes := []int{cfg.trace}
	if cfg.trace < 0 {
		modes = []int{0, 1}
	}
	ok := true
	for _, name := range names {
		w, found := workloadByName(name)
		if !found {
			return fmt.Errorf("unknown workload %q", name)
		}
		for _, mode := range modes {
			res, err := runOne(cfg, w, mode)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			line, err := json.Marshal(res)
			if err != nil {
				return err
			}
			fmt.Println(string(line))
			ok = ok && res.Correct
		}
	}
	if !ok {
		return fmt.Errorf("operations failed or answered wrongly")
	}
	return nil
}

// runOne runs one workload in one mode, prints its metrics by name and
// returns the result object.
func runOne(cfg config, w *workload, mode int) (result, error) {
	env := &env{cfg: cfg, w: w, clients: w.clients(runtime.NumCPU())}
	defer env.cleanup()
	if w.durable {
		if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
			return result{}, err
		}
		fsType, ram, err := filesystemOf(cfg.dataDir)
		if err != nil {
			return result{}, err
		}
		fmt.Printf("# %s writes under %s (%s)\n", w.name, cfg.dataDir, fsType)
		if ram {
			return result{}, fmt.Errorf("%s is on %s: an fsync that costs nothing is not the metric; point -data at a real disk", cfg.dataDir, fsType)
		}
	}
	var (
		res  result
		vals map[string]float64
		defs = endToEnd
		err  error
	)
	if mode == 0 {
		res, vals, err = runEndToEnd(env)
	} else {
		defs = perLayer
		res, vals, err = runLayers(env)
	}
	if err != nil {
		return result{}, err
	}
	fmt.Printf("# %s seed=%d seconds=%g clients=%d inputs=%016x attempted=%d failed=%d error_rate=%g\n",
		w.name, cfg.seed, cfg.seconds, env.clients, w.inputsHash(cfg.seed, cfg.scale), res.Attempted, res.Failed,
		float64(res.Failed)/float64(res.Attempted))
	res.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
		fmt.Printf("%-18s %-32s %16.4f %s\n", w.name, d.name, vals[d.name], d.unit)
	}
	return res, nil
}

// env is what a workload's constructors need to know about the run.
type env struct {
	cfg     config
	w       *workload
	clients int
	dirs    []string
}

// freshDir makes an empty directory under the data root; cleanup removes
// every one made.
func (e *env) freshDir() (string, error) {
	dir, err := os.MkdirTemp(e.cfg.dataDir, e.w.name+"-")
	if err == nil {
		e.dirs = append(e.dirs, dir)
	}
	return dir, err
}

func (e *env) cleanup() {
	for _, dir := range e.dirs {
		os.RemoveAll(dir) //soclint:ignore errdiscard leftover scratch data is harmless and there is nobody left to tell
	}
}

func scaled(n int, scale float64) int {
	if s := int(float64(n) * scale); s > 1 {
		return s
	}
	return 1
}

// filesystemOf names the filesystem under dir and says whether it keeps
// its data in memory.
func filesystemOf(dir string) (name string, ram bool, err error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", false, fmt.Errorf("statfs %s: %w", dir, err)
	}
	known := map[int64]string{
		0x01021994: "tmpfs", 0x858458f6: "ramfs", 0xef53: "ext4", 0x58465342: "xfs",
		0x9123683e: "btrfs", 0x794c7630: "overlayfs", 0x6969: "nfs", 0x2fc12fc1: "zfs",
	}
	name, ok := known[int64(st.Type)]
	if !ok {
		name = fmt.Sprintf("fs type %#x", st.Type)
	}
	return name, name == "tmpfs" || name == "ramfs", nil
}

const (
	minWindows  = 10  // windows are a second long, shorter only on runs under ten seconds
	warmupShare = 0.1 // of -seconds; discarded
	repeatShare = 0.1 // of -seconds, each for repeating the set-up and the restart
	// minOverheadCPU is the least CPU time a serial phase must have used for
	// the tracing-overhead limit to be enforced: below it one collection
	// more or less decides the ratio.
	minOverheadCPU = time.Second
)

// repeated calls once at least reps times and until the calls have taken
// repeatShare of seconds, and returns the times once reported. A set-up or
// a restart of the request workloads is milliseconds long; a fixed few dozen
// fit inside one burst of interference and the run's figure moved with it.
func repeated(reps int, seconds float64, once func() (time.Duration, error)) ([]time.Duration, error) {
	budget := time.Duration(seconds * repeatShare * float64(time.Second))
	var times []time.Duration
	for start := time.Now(); len(times) < reps || time.Since(start) < budget; {
		// Collect first, so that a collection the previous repetition left
		// due does not land in this one: at a few milliseconds a repetition
		// is short enough for one cycle to double it.
		runtime.GC()
		d, err := once()
		if err != nil {
			return nil, err
		}
		times = append(times, d)
	}
	return times, nil
}

// runEndToEnd is the -trace 0 run: set-up (several times, median), warm-up,
// the timed phase with tracing off, then restart-and-verify (several
// times, median).
func runEndToEnd(e *env) (result, map[string]float64, error) {
	ctx := context.Background()
	w, seconds := e.w, e.cfg.seconds
	var sys system
	setups, err := repeated(w.setupReps, seconds, func() (time.Duration, error) {
		if sys != nil {
			if err := sys.close(); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		var err error
		if sys, err = w.build(e, nil); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		if err := sys.do(ctx, 0, 0); err != nil {
			return 0, fmt.Errorf("first operation: %w", err)
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return result{}, nil, err
	}
	dr := newDriver(sys, e.clients)
	dr.next[0] = 1
	window := min(time.Second, time.Duration(seconds/minWindows*float64(time.Second)))
	perClient := 0
	if w.fixedWork {
		// Cost per instance grows with the instances the journal holds, so
		// the amount of work is fixed, not the time: -seconds sets it.
		perClient = max(1, int(w.serialRate*seconds)/e.clients)
	}
	warm := time.Duration(seconds * warmupShare * float64(time.Second))
	warmUp, err := dr.run(ctx, warm, perClient/10, window)
	if err != nil {
		return result{}, nil, fmt.Errorf("warm-up: %w", err)
	}
	p, err := dr.run(ctx, time.Duration(seconds*float64(time.Second)), perClient, window)
	if err != nil {
		return result{}, nil, fmt.Errorf("after the timed phase: %w", err)
	}
	for _, msg := range dr.errs {
		fmt.Fprintln(os.Stderr, "bench:", w.name+":", msg)
	}
	recovers, err := repeated(w.recoverReps, seconds, sys.restart)
	if err != nil {
		return result{}, nil, fmt.Errorf("restart: %w", err)
	}
	if err := sys.close(); err != nil {
		return result{}, nil, err
	}
	fmt.Printf("# %s timed phase: %d ops in %.2fs; %d latency samples in %d complete windows of %v\n",
		w.name, p.ops, p.elapsed.Seconds(), p.samples, len(p.windows), p.window)
	fmt.Printf("# %s completions per window: %v\n", w.name, p.windows)
	for _, r := range []struct {
		what  string
		times []time.Duration
	}{{"set-ups", setups}, {"restarts", recovers}} {
		fmt.Printf("# %s %d %s: quartiles %v %v %v\n", w.name, len(r.times), r.what,
			quartileDuration(r.times, 0.25), quartileDuration(r.times, 0.5), quartileDuration(r.times, 0.75))
	}
	vals := map[string]float64{
		"setup_s":          quartileDuration(setups, 0.5).Seconds(),
		"throughput_ops_s": p.throughput(),
		"latency_p50_us":   p.latency(p.windowP50),
		"latency_p99_us":   p.latency(p.windowP99),
		"cpu_us_per_op":    p.cpuPerOpQuiet(),
		"allocs_per_op":    float64(p.mallocs) / float64(p.ops),
		"recover_ms":       float64(quartileDuration(recovers, 0.5)) / float64(time.Millisecond),
	}
	// The metrics are the timed phase's; a failure while warming up still
	// makes the run wrong.
	return result{Correct: p.failed+warmUp.failed == 0, Attempted: p.ops, Failed: p.failed}, vals, nil
}

// runLayers is the -trace 1 run: the same fixed op sequence three times —
// one client untraced (serial), one client with the span wrappers on
// (traced), all clients untraced (concurrent) — then the workload's layer
// microbenches. Counts are deltas over the traced phase and must repeat
// exactly from run to run.
func runLayers(e *env) (result, map[string]float64, error) {
	ctx := context.Background()
	w := e.w
	// The sequence is a fifth of what one client does in -seconds, rounded
	// to a multiple of the client count so every phase runs exactly ops.
	ops := max(1, int(w.serialRate*e.cfg.seconds*0.2)/e.clients) * e.clients
	warm := ops/5 + 1

	// measured runs warm-up then ops operations, split over clients, on a
	// fresh system, and returns the phase and the counter deltas.
	var spans []span
	measured := func(rec *recorder, clients int) (phase, map[string]float64, error) {
		sys, err := w.build(e, rec)
		if err != nil {
			return phase{}, nil, err
		}
		dr := newDriver(sys, clients)
		if _, err := dr.run(ctx, 0, warm/clients+1, time.Second); err != nil {
			return phase{}, nil, err
		}
		if rec != nil {
			rec.reset()
		}
		before := sys.counts()
		p, err := dr.run(ctx, 0, ops/clients, time.Second)
		if err != nil {
			return phase{}, nil, err
		}
		if rec != nil {
			spans = rec.spans[:len(rec.spans):len(rec.spans)]
		}
		delta := sys.counts()
		for k, v := range before {
			delta[k] -= v
		}
		if w.durable && rec != nil {
			// The abs.* counts describe the directory as a whole and are
			// read once it has been closed and recovered.
			if _, err := sys.restart(); err != nil {
				return phase{}, nil, err
			}
			for k, v := range sys.counts() {
				if strings.HasPrefix(k, "abs.") {
					delta[k] = v
				}
			}
		}
		for _, msg := range dr.errs {
			fmt.Fprintln(os.Stderr, "bench:", w.name+":", msg)
		}
		return p, delta, sys.close()
	}

	serial, _, err := measured(nil, 1)
	if err != nil {
		return result{}, nil, fmt.Errorf("serial phase: %w", err)
	}
	rec := newRecorder()
	traced, counts, err := measured(rec, 1)
	if err != nil {
		return result{}, nil, fmt.Errorf("traced phase: %w", err)
	}
	concurrent, _, err := measured(nil, e.clients)
	if err != nil {
		return result{}, nil, fmt.Errorf("concurrent phase: %w", err)
	}
	if err := rec.dump(filepath.Join(e.cfg.outDir, "trace-"+w.name+".json")); err != nil {
		return result{}, nil, fmt.Errorf("writing the trace: %w", err)
	}
	if rec.bad != "" {
		return result{}, nil, fmt.Errorf("trace: %s", rec.bad)
	}
	vals, err := runMicro(time.Duration(e.cfg.seconds*0.2*float64(time.Second)), w.micro(e))
	if err != nil {
		return result{}, nil, fmt.Errorf("microbench: %w", err)
	}

	b := fold(spans)
	usPerOp := func(p phase) float64 { return float64(p.elapsed) / float64(time.Microsecond) / float64(p.ops) }
	w.layers(b, counts, float64(ops), vals)
	vals["proc.cpu_us_per_op"] = float64(concurrent.cpu) / float64(time.Microsecond) / float64(concurrent.ops)
	vals["proc.bytes_per_op"] = float64(concurrent.bytes) / float64(concurrent.ops)
	vals["scale.speedup_vs_serial"] = float64(serial.elapsed) / float64(concurrent.elapsed)
	vals["serial_us_per_op"] = usPerOp(serial)
	vals["trace.root_us"] = b.perOp(b.root)
	vals["trace.unattributed_pct"] = 100 * (1 - b.perOp(b.root)/usPerOp(traced))
	// Overhead compares CPU time, not wall time: what tracing adds is
	// instructions, and on the durable workloads the wall clock mostly
	// measures how the disk felt during each phase.
	vals["trace.overhead_pct"] = 100 * (float64(traced.cpu)/float64(serial.cpu) - 1)

	// Reconciliation: the layers must add up to the request, the request to
	// the wall clock, and tracing must not have distorted what it measured.
	fmt.Printf("# %s reconciliation: layer self times sum to %.3f us/op, root spans %.3f us/op, traced wall %.3f us/op, serial wall %.3f us/op\n",
		w.name, b.perOp(b.selfSum()), vals["trace.root_us"], usPerOp(traced), vals["serial_us_per_op"])
	names := make([]string, 0, numLayers)
	for l := layer(0); l < numLayers; l++ {
		if b.calls[l] > 0 {
			names = append(names, fmt.Sprintf("%s=%.3f", layerNames[l], b.perOp(b.self[l])))
		}
	}
	sort.Strings(names)
	fmt.Printf("# %s self time per op (us): %v\n", w.name, names)
	switch {
	case b.ops != ops:
		return result{}, nil, fmt.Errorf("reconciliation: %d root spans for %d traced ops", b.ops, ops)
	case math.Abs(float64(b.selfSum()-b.root)) > 0.02*float64(b.root):
		return result{}, nil, fmt.Errorf("reconciliation: layer self times (%v) and root spans (%v) differ by more than 2%%", b.selfSum(), b.root)
	case vals["trace.unattributed_pct"] > 10 || vals["trace.unattributed_pct"] < 0:
		return result{}, nil, fmt.Errorf("reconciliation: root spans cover %.1f%% less than the traced phase's wall time (limit 10%%)", vals["trace.unattributed_pct"])
	case vals["trace.overhead_pct"] > 25 && serial.cpu > minOverheadCPU:
		return result{}, nil, fmt.Errorf("reconciliation: tracing cost %.1f%% more CPU than the serial phase (limit 25%%)", vals["trace.overhead_pct"])
	}
	attempted := serial.ops + traced.ops + concurrent.ops
	failed := serial.failed + traced.failed + concurrent.failed
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed}, vals, nil
}
