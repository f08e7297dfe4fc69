package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"soc/internal/services"
)

var ctx = context.Background()

func TestFigure1ProgramSolvesMaze(t *testing.T) {
	out, err := Figure1(ctx, 3)
	if err != nil {
		t.Fatalf("Figure1: %v\n%s", err, out)
	}
	for _, want := range []string{"Robot as a Service", "atGoal=true", "WHILE NOT_GOAL", " G "} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestFigure2Shape(t *testing.T) {
	spec := Figure2Spec{Sizes: []int{9}, Seeds: 6, Budget: 30000}
	out, sums, err := Figure2(ctx, spec)
	if err != nil {
		t.Fatalf("Figure2: %v", err)
	}
	byAlg := map[string]float64{}
	steps := map[string]float64{}
	for _, s := range sums {
		byAlg[s.Algorithm] = s.SolveRate()
		steps[s.Algorithm] = s.MeanSteps
	}
	// Who wins: oracle and wall-followers solve everything; greedy close;
	// random is the straggler on step count.
	if byAlg["bfs-oracle"] != 1 || byAlg["wall-follow-right"] != 1 {
		t.Errorf("solve rates = %v", byAlg)
	}
	if steps["bfs-oracle"] > steps["wall-follow-right"] {
		t.Errorf("oracle steps %v > wall follow %v", steps["bfs-oracle"], steps["wall-follow-right"])
	}
	if !strings.Contains(out, "digraph") {
		t.Error("FSM DOT missing from report")
	}
}

func TestFigure3Shape(t *testing.T) {
	spec := DefaultFigure3
	spec.Hi = 50_001 // keep the test quick
	out, res, err := Figure3(spec)
	if err != nil {
		t.Fatalf("Figure3: %v", err)
	}
	v := res.Virtual
	if len(v) != 5 || v[0].Cores != 1 || v[len(v)-1].Cores != 32 {
		t.Fatalf("virtual points = %+v", v)
	}
	// The paper's shape: monotone speedup, declining efficiency,
	// sub-linear at 32 cores but still well above 1.
	for i := 1; i < len(v); i++ {
		if v[i].Speedup < v[i-1].Speedup {
			t.Errorf("speedup not monotone: %+v", v)
		}
		if v[i].Efficiency > v[i-1].Efficiency+1e-9 {
			t.Errorf("efficiency not declining: %+v", v)
		}
	}
	last := v[len(v)-1]
	if last.Speedup < 4 || last.Speedup >= 32 {
		t.Errorf("32-core speedup %v outside plausible band", last.Speedup)
	}
	if len(res.Real) == 0 || res.Real[0].P != 1 {
		t.Errorf("real points = %+v", res.Real)
	}
	if !strings.Contains(out, "efficiency") {
		t.Error("report missing efficiency column")
	}
}

func TestFigure4EndToEnd(t *testing.T) {
	out, err := Figure4(t.TempDir())
	if err != nil {
		t.Fatalf("Figure4: %v\n%s", err, out)
	}
	for _, want := range []string{
		"credit-score service denies", "issued user ID", "weak password rejected",
		"mismatched retype rejected", "correct login succeeds", "account.xml",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestTables(t *testing.T) {
	t4, err := Table4()
	if err != nil {
		t.Fatalf("Table4: %v", err)
	}
	for _, want := range []string{"134", "2006 Fall", "growth", "enrollment"} {
		if !strings.Contains(t4, want) {
			t.Errorf("table4 missing %q", want)
		}
	}
	t5, err := Table5()
	if err != nil {
		t.Fatalf("Table5: %v", err)
	}
	if !strings.Contains(t5, "4.63") || !strings.Contains(t5, "means") {
		t.Errorf("table5:\n%s", t5)
	}
	acm, err := TablesACM()
	if err != nil {
		t.Fatalf("TablesACM: %v", err)
	}
	if !strings.Contains(acm, "0 uncovered") {
		t.Errorf("acm:\n%s", acm)
	}
}

func TestBindingsAblation(t *testing.T) {
	out, err := Bindings(20)
	if err != nil {
		t.Fatalf("Bindings: %v", err)
	}
	if !strings.Contains(out, "rest") || !strings.Contains(out, "soap") {
		t.Errorf("report:\n%s", out)
	}
}

func TestWorkflowOverheadAblation(t *testing.T) {
	out, err := WorkflowOverhead(100)
	if err != nil {
		t.Fatalf("WorkflowOverhead: %v", err)
	}
	if !strings.Contains(out, "direct") || !strings.Contains(out, "workflow") {
		t.Errorf("report:\n%s", out)
	}
}

func TestStateManagementAblation(t *testing.T) {
	out, err := StateManagement(2000)
	if err != nil {
		t.Fatalf("StateManagement: %v", err)
	}
	if !strings.Contains(out, "hit ratio") || !strings.Contains(out, "1024") {
		t.Errorf("report:\n%s", out)
	}
}

// TestCloudScaleAblation holds A5 to the cloud unit's lesson, read off
// the text socbench prints: the elastic pool — the real Autoscaler on
// the virtual clock — beats a pool sized for the average on served
// requests and a pool sized for the peak on cost.
func TestCloudScaleAblation(t *testing.T) {
	out, err := CloudScale() // any cluster invariant violation is an error
	if err != nil {
		t.Fatalf("CloudScale: %v", err)
	}
	again, err := CloudScale()
	if err != nil || again != out {
		t.Fatalf("second run differs (err %v):\n%s\nvs\n%s", err, out, again)
	}

	// The printed pool is the autoscaler's own record for this config.
	rec, err := a5Run(a5Policy.MinReplicas, a5Policy.MaxReplicas)
	if err != nil {
		t.Fatalf("a5Run: %v", err)
	}
	var pool []int
	arms := map[string][2]int{} // name -> served, replica-windows
	for _, line := range strings.Split(out, "\n") {
		var w, demand, served, dropped, running, draining int
		if n, _ := fmt.Sscan(line, &w, &demand, &served, &dropped, &running, &draining); n == 6 {
			if w != len(pool) || w >= len(rec.Pool) {
				t.Fatalf("row %q is not window %d of %d:\n%s", line, len(pool), len(rec.Pool), out)
			}
			if demand != a5Demand[w] || running != rec.Pool[w].Running || draining != rec.Pool[w].Draining {
				t.Errorf("row %q disagrees with the run's window %d: %+v", line, w, rec.Pool[w])
			}
			pool = append(pool, running)
			continue
		}
		if name, rest, ok := strings.Cut(line, ": served "); ok {
			var total, cost int
			if _, err := fmt.Sscanf(rest, "%d/%d (dropped %d), %d replica-windows", &served, &total, &dropped, &cost); err != nil {
				t.Fatalf("summary %q: %v", line, err)
			}
			arms[strings.TrimSpace(name)] = [2]int{served, cost}
		}
	}
	if len(pool) != len(a5Demand) {
		t.Fatalf("table has %d windows, want %d:\n%s", len(pool), len(a5Demand), out)
	}
	elastic, avg, peak := arms["elastic"], arms["static n=2"], arms["static n=12"]
	if elastic[0] <= avg[0] {
		t.Errorf("elastic served %d, not more than static n=2's %d", elastic[0], avg[0])
	}
	if elastic[1] >= peak[1] {
		t.Errorf("elastic cost %d replica-windows, not fewer than static n=12's %d", elastic[1], peak[1])
	}
	if top := slices.Max(pool); top < 12 {
		t.Errorf("pool peaked at %d replicas, want at least 12:\n%s", top, out)
	}
	tail := a5Demand[len(a5Demand)-1]
	if got, want := pool[len(pool)-1], a5Policy.Desired(tail); got != want {
		t.Errorf("pool ends at %d replicas, want Desired(%d) = %d", got, tail, want)
	}
}

func TestDependabilityAblation(t *testing.T) {
	out, err := Dependability()
	if err != nil {
		t.Fatalf("Dependability: %v\n%s", err, out)
	}
	if !strings.Contains(out, "40 succeeded, 0 failed") {
		t.Errorf("report:\n%s", out)
	}
}

func TestCrawlAblation(t *testing.T) {
	out, err := Crawl(ctx)
	if err != nil {
		t.Fatalf("Crawl: %v\n%s", err, out)
	}
	if !strings.Contains(out, "1 published") && !strings.Contains(out, "discovered 1") {
		t.Errorf("report:\n%s", out)
	}
	if !strings.Contains(out, "flagged unreliable") {
		t.Errorf("report:\n%s", out)
	}
}

func TestFindSSNHelpers(t *testing.T) {
	good, err := findSSN(func(s int64) bool { return s >= services.ApprovalThreshold })
	if err != nil {
		t.Fatal(err)
	}
	score, _ := services.CreditScoreOf(good)
	if score < services.ApprovalThreshold {
		t.Errorf("good ssn score %d", score)
	}
	if _, err := findSSN(func(int64) bool { return false }); err == nil {
		t.Error("impossible predicate satisfied")
	}
}
