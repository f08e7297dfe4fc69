// Package soc's root benchmark harness: one benchmark per table and
// figure of the paper (Figures 1-5, Tables 1-5) plus the ablation studies
// (A1-A6 in DESIGN.md). Run all of them with:
//
//	go test -bench=. -benchmem
package soc

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"testing"

	"soc/internal/collatz"
	"soc/internal/core"
	"soc/internal/curriculum"
	"soc/internal/experiments"
	"soc/internal/host"
	"soc/internal/maze"
	"soc/internal/mortgageapp"
	"soc/internal/nav"
	"soc/internal/registry"
	"soc/internal/robot"
	"soc/internal/services"
	"soc/internal/session"
	"soc/internal/vtime"
	"soc/internal/workflow"
)

// BenchmarkFigure1 runs the web-environment command program (right-hand
// wall follower) to the goal of a 15x15 maze through the Robot-as-a-
// Service API.
func BenchmarkFigure1(b *testing.B) {
	ctx := context.Background()
	sessions := robot.NewSessions()
	svc, err := robot.NewService(sessions)
	if err != nil {
		b.Fatal(err)
	}
	const program = `WHILE NOT_GOAL
IF RIGHT_OPEN
RIGHT
FORWARD
ELSE
IF FRONT_OPEN
FORWARD
ELSE
LEFT
END
END
END`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := svc.Invoke(ctx, "CreateMaze", core.Values{
			"width": 15, "height": 15, "algorithm": "dfs", "seed": int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		run, err := svc.Invoke(ctx, "RunProgram", core.Values{
			"session": out["session"], "program": program,
		})
		if err != nil || run["atGoal"] != true {
			b.Fatalf("run: %v %v", run, err)
		}
		if _, err := svc.Invoke(ctx, "CloseSession", core.Values{"session": out["session"]}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2 solves a 15x15 maze with each navigation algorithm.
func BenchmarkFigure2(b *testing.B) {
	ctx := context.Background()
	for _, alg := range nav.Algorithms() {
		b.Run(alg, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := maze.Generate(15, 15, maze.DFS, int64(i%16))
				if err != nil {
					b.Fatal(err)
				}
				r, err := robot.New(m)
				if err != nil {
					b.Fatal(err)
				}
				ctrl, err := nav.New(alg, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := nav.Run(ctx, ctrl, r, 200000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure3 measures the Collatz workload: the real schedulers at
// the host's core count and the virtual-time projection to 32 cores.
func BenchmarkFigure3(b *testing.B) {
	const lo, hi = 1, 100_001
	seq, err := collatz.ValidateSeq(lo, hi)
	if err != nil {
		b.Fatal(err)
	}
	check := func(b *testing.B, r collatz.Result, err error) {
		b.Helper()
		if err != nil || r.TotalSteps != seq.TotalSteps {
			b.Fatalf("mismatch: %v", err)
		}
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := collatz.ValidateSeq(lo, hi)
			check(b, r, err)
		}
	})
	b.Run("static", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := collatz.ValidateStatic(lo, hi, 2)
			check(b, r, err)
		}
	})
	b.Run("dynamic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := collatz.ValidateDynamic(lo, hi, 2)
			check(b, r, err)
		}
	})
	b.Run("virtual-32core", func(b *testing.B) {
		tasks, err := collatz.Tasks(lo, hi, 64)
		if err != nil {
			b.Fatal(err)
		}
		ex, err := vtime.NewExecutor(vtime.Config{DispatchOverhead: 6, CoreStartup: 2000})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ex.Scaling(tasks, []int{1, 4, 8, 16, 32}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFigure4 runs the complete account-application web flow
// (subscribe → password → login) over HTTP per iteration.
func BenchmarkFigure4(b *testing.B) {
	app, err := mortgageapp.New(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	server := httptest.NewServer(app)
	defer server.Close()

	// A pool of approvable SSNs (one per iteration: SSNs are unique).
	var ssns []string
	for a := 100; a < 1000 && len(ssns) < 2048; a++ {
		for c := 1000; c < 1020 && len(ssns) < 2048; c++ {
			ssn := fmt.Sprintf("%03d-%02d-%04d", a, a%90+10, c)
			if score, err := services.CreditScoreOf(ssn); err == nil && score >= services.ApprovalThreshold {
				ssns = append(ssns, ssn)
			}
		}
	}
	if len(ssns) == 0 {
		b.Fatal("no approvable SSNs")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jar, _ := cookiejar.New(nil)
		client := &http.Client{Jar: jar}
		post := func(path string, form url.Values) (int, map[string]any) {
			resp, err := client.PostForm(server.URL+path, form)
			if err != nil {
				b.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var body map[string]any
			_ = json.Unmarshal(data, &body)
			return resp.StatusCode, body
		}
		ssn := ssns[i%len(ssns)]
		status, body := post("/subscribe", url.Values{
			"name": {"Bench"}, "ssn": {ssn}, "address": {"1 Bench Rd"},
			"dob": {"1990-01-01"}, "income": {"100000"}, "amount": {"300000"},
		})
		if status != http.StatusOK {
			b.Fatalf("subscribe: %d %v", status, body)
		}
		userID, _ := body["userId"].(string)
		if body["approved"] == true && userID != "" {
			if s, _ := post("/password", url.Values{
				"userId": {userID}, "password": {"B3nchPass!"}, "retype": {"B3nchPass!"},
			}); s != http.StatusOK {
				b.Fatalf("password: %d", s)
			}
			if s, _ := post("/login", url.Values{
				"userId": {userID}, "password": {"B3nchPass!"},
			}); s != http.StatusOK {
				b.Fatalf("login: %d", s)
			}
		}
	}
}

// BenchmarkTable4Figure5 regenerates the enrollment analytics and the
// ASCII Figure 5 plot.
func BenchmarkTable4Figure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := curriculum.GrowthFactor(curriculum.EnrollmentTable); err != nil {
			b.Fatal(err)
		}
		if _, err := curriculum.LinearTrend(curriculum.EnrollmentTable); err != nil {
			b.Fatal(err)
		}
		if _, err := curriculum.Figure5(curriculum.EnrollmentTable); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5 regenerates the evaluation-score analytics.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := curriculum.MeanScores(curriculum.EvaluationTable); err != nil {
			b.Fatal(err)
		}
		_ = curriculum.FormatTable5(curriculum.EvaluationTable)
	}
}

// BenchmarkTablesACM regenerates the ACM topic coverage report.
func BenchmarkTablesACM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, uncovered := curriculum.CoverageReport(curriculum.ACMTopics); uncovered != 0 {
			b.Fatal("uncovered topics")
		}
	}
}

func newCalcHost(b *testing.B) (*host.Host, *httptest.Server) {
	b.Helper()
	svc, err := core.NewService("Calc", "http://soc.example/calc", "arithmetic")
	if err != nil {
		b.Fatal(err)
	}
	svc.MustAddOperation(core.Operation{
		Name:   "Add",
		Input:  []core.Param{{Name: "a", Type: core.Int}, {Name: "b", Type: core.Int}},
		Output: []core.Param{{Name: "sum", Type: core.Int}},
		Handler: func(_ context.Context, in core.Values) (core.Values, error) {
			return core.Values{"sum": in.Int("a") + in.Int("b")}, nil
		},
	})
	h := host.New()
	h.MustMount(svc)
	server := httptest.NewServer(h)
	b.Cleanup(server.Close)
	return h, server
}

// BenchmarkBindings compares REST and SOAP invocation of the same
// operation (ablation A2).
func BenchmarkBindings(b *testing.B) {
	_, server := newCalcHost(b)
	client := host.NewClient(server.URL)
	ctx := context.Background()
	b.Run("rest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := client.Call(ctx, "Calc", "Add", core.Values{"a": 2, "b": 3})
			if err != nil || out.Float("sum") != 5 {
				b.Fatalf("%v %v", out, err)
			}
		}
	})
	b.Run("soap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := client.CallSOAP(ctx, "Calc", "Add", "http://soc.example/calc", core.Values{"a": 2, "b": 3})
			if err != nil || out["sum"] != "5" {
				b.Fatalf("%v %v", out, err)
			}
		}
	})
}

// BenchmarkWorkflowOverhead compares direct invocation against engine
// orchestration (ablation A3).
func BenchmarkWorkflowOverhead(b *testing.B) {
	svc, err := core.NewService("Calc", "http://soc.example/calc", "")
	if err != nil {
		b.Fatal(err)
	}
	svc.MustAddOperation(core.Operation{
		Name:   "Add",
		Input:  []core.Param{{Name: "a", Type: core.Int}, {Name: "b", Type: core.Int}},
		Output: []core.Param{{Name: "sum", Type: core.Int}},
		Handler: func(_ context.Context, in core.Values) (core.Values, error) {
			return core.Values{"sum": in.Int("a") + in.Int("b")}, nil
		},
	})
	ctx := context.Background()
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := svc.Invoke(ctx, "Add", core.Values{"a": 1, "b": 2}); err != nil {
				b.Fatal(err)
			}
		}
	})
	inv := workflow.InvokerFunc(func(ctx context.Context, _, op string, args map[string]any) (map[string]any, error) {
		out, err := svc.Invoke(ctx, op, core.Values(args))
		return map[string]any(out), err
	})
	wf, err := workflow.New("one", &workflow.Invoke{
		Label: "add", Service: "Calc", Operation: "Add", Invoker: inv,
		Inputs: map[string]string{"a": "x", "b": "y"}, Outputs: map[string]string{"sum": "s"},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("workflow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := wf.Run(ctx, map[string]any{"x": int64(1), "y": int64(2)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStateManagement measures the session cache under a skewed
// access pattern (ablation A4).
func BenchmarkStateManagement(b *testing.B) {
	c, err := session.NewCache(256)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("page-%d", i%512)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		if _, ok := c.Get(k); !ok {
			c.Put(k, "rendered")
		}
	}
}

// BenchmarkCloudScale runs the autoscaler elasticity study (ablation
// A5): three virtual-clock cluster runs per iteration.
func BenchmarkCloudScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CloudScale(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegistrySearch measures broker keyword search as the directory
// grows (ablation A1 companion).
func BenchmarkRegistrySearch(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("entries-%d", n), func(b *testing.B) {
			reg := registry.New()
			for i := 0; i < n; i++ {
				err := reg.Publish(registry.Entry{
					Name:     fmt.Sprintf("Service%d", i),
					Doc:      fmt.Sprintf("sample service number %d for keyword testing", i),
					Endpoint: "http://example/svc",
					Category: "testing",
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := reg.Search("sample keyword service", 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
