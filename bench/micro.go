package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"soc/internal/callplane"
	"soc/internal/core"
	"soc/internal/registry"
	"soc/internal/respcache"
	"soc/internal/security"
	"soc/internal/services"
	"soc/internal/soap"
	"soc/internal/telemetry"
	"soc/internal/wal"
	"soc/internal/workflow"
)

// measure calls fn in ten batches sized to fill budget (at most maxCalls in
// all) and reports the median batch's nanoseconds per call and the
// allocations per call. A layer's microbench says what the layer costs on
// its own; the traced phase says what it costs inside a request.
func measure(budget time.Duration, maxCalls int, fn func() error) (ns, allocs float64, err error) {
	const batches = 10
	t0 := time.Now()
	if err := fn(); err != nil {
		return 0, 0, err
	}
	one := time.Since(t0)
	if one <= 0 {
		one = time.Nanosecond
	}
	n := int(budget / batches / one)
	if n > maxCalls/batches {
		n = maxCalls / batches
	}
	if n < 1 {
		n = 1
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	perCall := make([]float64, batches)
	for b := range perCall {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(); err != nil {
				return 0, 0, err
			}
		}
		perCall[b] = float64(time.Since(start)) / float64(n)
	}
	runtime.ReadMemStats(&after)
	return median(perCall), float64(after.Mallocs-before.Mallocs) / float64(batches*n), nil
}

// microbench is one layer measured alone; out receives its metrics.
type microbench func(budget time.Duration, out map[string]float64) error

func runMicro(budget time.Duration, benches []microbench) (map[string]float64, error) {
	out := map[string]float64{}
	for _, mb := range benches {
		if err := mb(budget/time.Duration(len(benches)), out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

const manyCalls = 1 << 20

// microSOAP times the codec on the envelopes dispatch-light sends.
func microSOAP(budget time.Duration, out map[string]float64) error {
	request, err := soap.Encode(soap.Message{
		Operation: "Generate", Namespace: services.NamespacePrefix + "randomstring",
		Params: map[string]string{"length": "16"}, ParamOrder: []string{"length"},
	})
	if err != nil {
		return err
	}
	response := soap.Message{
		Operation: "GenerateResponse", Namespace: services.NamespacePrefix + "randomstring",
		Params: map[string]string{"value": "Zk3mQ9xLp2Rt7vWa"}, ParamOrder: []string{"value"},
	}
	out["soap.decode_ns"], out["soap.decode_allocs"], err = measure(budget/2, manyCalls, func() error {
		_, err := soap.DecodeBytes(request)
		return err
	})
	if err != nil {
		return err
	}
	out["soap.encode_ns"], out["soap.encode_allocs"], err = measure(budget/2, manyCalls, func() error {
		_, err := soap.Encode(response)
		return err
	})
	return err
}

// microCallplane times the interceptor chain the front door puts around
// every proxied exchange, with an exchange that costs nothing.
func microCallplane(budget time.Duration, out map[string]float64) error {
	tracer := telemetry.NewTracer(0)
	chain := callplane.Chain(callplane.Terminal,
		callplane.WithSpan(tracer, telemetry.KindClient), callplane.WithAttemptSpan(tracer))
	ctx := context.Background()
	var err error
	out["callplane.chain_ns"], _, err = measure(budget, manyCalls, func() error {
		return chain.RoundTrip(ctx, &callplane.Invocation{
			Service: "frontdoor", Operation: "POST /x", Binding: "proxy",
			Do: func(context.Context, *callplane.Invocation) error { return nil },
		})
	})
	return err
}

func microInvoke(budget time.Duration, out map[string]float64) error {
	svc, err := services.NewCompute()
	if err != nil {
		return err
	}
	ctx := context.Background()
	out["core.invoke_ns"], _, err = measure(budget, manyCalls, func() error {
		_, err := svc.Invoke(ctx, "CollatzSteps", core.Values{"n": int64(27)})
		return err
	})
	return err
}

func microRespcache(budget time.Duration, out map[string]float64) error {
	cache := respcache.New(cacheSize, time.Hour)
	entry := &respcache.Entry{Status: 200, Body: []byte(`{"steps":111}`)}
	fill := func() (*respcache.Entry, bool) { return entry, true }
	var err error
	out["respcache.hit_ns"], _, err = measure(budget, manyCalls, func() error {
		if _, hit := cache.Do("Compute.CollatzSteps|n=27|json", fill); !hit && cache.Len() != 1 {
			return fmt.Errorf("respcache kept %d entries for one key", cache.Len())
		}
		return nil
	})
	return err
}

func microTelemetry(budget time.Duration, out map[string]float64) error {
	metrics := telemetry.NewMetrics()
	var err error
	out["telemetry.record_ns"], _, err = measure(budget/2, manyCalls, func() error {
		metrics.Record("Compute.CollatzSteps", 9*time.Microsecond, false)
		return nil
	})
	if err != nil {
		return err
	}
	tracer := telemetry.NewTracer(0)
	ctx := context.Background()
	out["telemetry.span_ns"], _, err = measure(budget/2, manyCalls, func() error {
		sp, _ := tracer.StartSpan(ctx, telemetry.KindServer, "Compute.CollatzSteps")
		sp.End()
		return nil
	})
	return err
}

func microPBKDF2(budget time.Duration, out map[string]float64) error {
	password, salt := []byte("correct horse battery"), []byte("0123456789abcdef")
	ns, allocs, err := measure(budget, manyCalls, func() error {
		if len(security.PBKDF2(password, salt, security.DefaultIterations, 32)) != 32 {
			return fmt.Errorf("PBKDF2 returned a short key")
		}
		return nil
	})
	out["security.pbkdf2_us"], out["security.pbkdf2_allocs"] = ns/1000, allocs
	return err
}

// microWAL times Log.Append of 256 bytes on the real directory and on
// MemFS: the difference is what an fsync costs on this disk.
func microWAL(e *env) microbench {
	return func(budget time.Duration, out map[string]float64) error {
		dir, err := e.freshDir()
		if err != nil {
			return err
		}
		payload := make([]byte, 256)
		appendOn := func(fs wal.FS, budget time.Duration, maxCalls int) (float64, error) {
			log, _, err := wal.Open(fs, wal.Options{})
			if err != nil {
				return 0, err
			}
			ns, _, err := measure(budget, maxCalls, func() error {
				_, err := log.Append(payload)
				return err
			})
			if err != nil {
				return 0, err
			}
			return ns, log.Close()
		}
		osfs, err := wal.NewOSFS(dir)
		if err != nil {
			return err
		}
		ns, err := appendOn(osfs, budget*3/4, manyCalls)
		if err != nil {
			return err
		}
		out["wal.append_osfs_us"] = ns / 1000
		// MemFS keeps every byte: bound the calls, not only the time.
		out["wal.append_memfs_ns"], err = appendOn(wal.NewMemFS(1), budget/4, 100000)
		return err
	}
}

// microWorkflow times the score-check definition without a disk: run in
// process by Workflow.Run, and journaled onto MemFS by Orchestrator.Start.
func microWorkflow(seed int64) microbench {
	return func(budget time.Duration, out map[string]float64) error {
		s := &flowSystem{seed: seed, started: make([][]flowStart, 1)}
		inv, err := s.invoker()
		if err != nil {
			return err
		}
		def, err := scoreCheck(inv)
		if err != nil {
			return err
		}
		ctx := context.Background()
		i := 0
		ns, _, err := measure(budget/2, manyCalls, func() error {
			vars, status, _ := flowInput(seed, 0, i)
			i++
			_, _, err := def.Run(ctx, vars)
			if (err != nil) != (status == workflow.StatusCompensated) {
				return fmt.Errorf("plain run ended with %v, the seed predicts %s", err, status)
			}
			return nil
		})
		if err != nil {
			return err
		}
		out["workflow.run_plain_us"] = ns / 1000
		orch, err := workflow.OpenOrchestrator(wal.NewMemFS(1), workflow.Options{Deterministic: true})
		if err != nil {
			return err
		}
		orch.Define(def)
		orch.DefineCompensator("log-reject", func(context.Context, map[string]any) error { return nil })
		s.orch = orch
		// Cost grows with the instances held; a few hundred keeps the
		// figure about the interpreter and journal records, not snapshots.
		ns, _, err = measure(budget/2, 400, func() error {
			i++
			return s.do(ctx, 0, i)
		})
		out["workflow.start_memfs_us"] = ns / 1000
		return err
	}
}

// microSearch times Registry.Search on the workload's catalog without the
// API, the client or the log around it.
func microSearch(in *churnInputs) microbench {
	return func(budget time.Duration, out map[string]float64) error {
		reg := registry.New()
		for _, e := range in.entries {
			if err := reg.Publish(e); err != nil {
				return err
			}
		}
		i := 0
		ns, _, err := measure(budget, manyCalls, func() error {
			t := in.seq[i%len(in.seq)].target
			i++
			m, err := reg.Search(in.unique[t]+" "+in.common[t], 10)
			if err == nil && (len(m) == 0 || m[0].Entry.Name != in.entries[t].Name) {
				err = fmt.Errorf("direct search for %s missed %s", in.unique[t], in.entries[t].Name)
			}
			return err
		})
		out["registry.search_direct_us"] = ns / 1000
		return err
	}
}
