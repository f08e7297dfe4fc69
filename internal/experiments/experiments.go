// Package experiments regenerates every table and figure of the paper's
// evaluation, plus the ablation studies DESIGN.md calls out. It is the
// one implementation of each, and the Default* specs the one home of its
// parameters; an experiment returns its report as text so cmd/socbench
// and the test suite run the same code.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"soc/internal/collatz"
	"soc/internal/curriculum"
	"soc/internal/maze"
	"soc/internal/nav"
	"soc/internal/perf"
	"soc/internal/robot"
	"soc/internal/vtime"
)

// Figure1 reproduces the web robotics programming environment experiment:
// a drop-down command program (as composed in the Figure 1 UI) is executed
// against the Robot-as-a-Service facade and must navigate the maze. It
// returns the rendered maze, the program, and the run outcome.
func Figure1(ctx context.Context, seed int64) (string, error) {
	sessions := robot.NewSessions()
	svc, err := robot.NewService(sessions)
	if err != nil {
		return "", err
	}
	out, err := svc.Invoke(ctx, "CreateMaze", map[string]any{
		"width": 9, "height": 9, "algorithm": "dfs", "seed": seed,
	})
	if err != nil {
		return "", err
	}
	session := out["session"]
	program := `# right-hand wall following, as composed from drop-down commands
WHILE NOT_GOAL
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
	render, err := svc.Invoke(ctx, "Render", map[string]any{"session": session})
	if err != nil {
		return "", err
	}
	run, err := svc.Invoke(ctx, "RunProgram", map[string]any{
		"session": session, "program": program, "budget": 100000,
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Figure 1 — web robotics programming environment (Robot as a Service)\n\n")
	b.WriteString(render["maze"].(string))
	fmt.Fprintf(&b, "\nprogram:\n%s\n", program)
	fmt.Fprintf(&b, "\nresult: ok=%v atGoal=%v steps=%v\n", run["ok"], run["atGoal"], run["steps"])
	if run["atGoal"] != true {
		return b.String(), fmt.Errorf("experiments: figure 1 program did not reach the goal")
	}
	return b.String(), nil
}

// Figure2Spec configures the navigation-algorithm comparison.
type Figure2Spec struct {
	Sizes  []int
	Seeds  int
	Budget int
}

// DefaultFigure2 is the corpus socbench runs.
var DefaultFigure2 = Figure2Spec{Sizes: []int{9, 15, 21}, Seeds: 12, Budget: 30000}

// Figure2 reproduces the maze-algorithm study implied by Figure 2: the
// two-distance greedy FSM against wall-following, random walk, and the
// BFS oracle, over a corpus of generated mazes. It also returns the DOT
// export of the greedy controller's FSM (the figure itself).
func Figure2(ctx context.Context, spec Figure2Spec) (string, []nav.Summary, error) {
	sums, err := nav.Evaluate(ctx, nav.Algorithms(), nav.CorpusSpec{
		Sizes: spec.Sizes, Seeds: spec.Seeds, Algorithm: maze.DFS, Budget: spec.Budget,
	})
	if err != nil {
		return "", nil, err
	}
	var b strings.Builder
	b.WriteString("Figure 2 — two-distance greedy FSM vs baselines (DFS maze corpus)\n\n")
	b.WriteString(nav.FormatSummaries(sums))
	b.WriteString("\nFSM of the two-distance controller (Figure 2, mechanically):\n")
	b.WriteString(nav.TwoDistanceDOT())
	return b.String(), sums, nil
}

// Figure3Spec configures the Collatz speedup experiment.
type Figure3Spec struct {
	// Lo and Hi bound the validated range.
	Lo, Hi uint64
	// Cores are the virtual core counts (the paper's 1,4,8,16,32).
	Cores []int
	// Chunk is the virtual-task granularity.
	Chunk int
	// DispatchOverhead and CoreStartup feed the vtime cost model.
	DispatchOverhead int64
	CoreStartup      int64
	// SerialFraction is the inherently sequential share of the total
	// work (the Amdahl term that bends the paper's efficiency curve).
	SerialFraction float64
}

// DefaultFigure3 mirrors the paper's 1..32-core sweep at laptop scale.
var DefaultFigure3 = Figure3Spec{
	Lo: 1, Hi: 200_001, Cores: []int{1, 4, 8, 16, 32},
	Chunk: 64, DispatchOverhead: 6, CoreStartup: 2000,
	SerialFraction: 0.025,
}

// Figure3Result carries both halves of the experiment.
type Figure3Result struct {
	Virtual []vtime.ScalingPoint
	Real    []perf.ScalingPoint
}

// Figure3 reproduces the Collatz speedup/efficiency study: virtual-time
// scaling to 32 cores (the Manycore-Testing-Lab substitution) anchored by
// real wall-clock measurements up to the host's core count.
func Figure3(spec Figure3Spec) (string, *Figure3Result, error) {
	tasks, err := collatz.Tasks(spec.Lo, spec.Hi, spec.Chunk)
	if err != nil {
		return "", nil, err
	}
	var total int64
	for _, t := range tasks {
		total += t.Cost
	}
	ex, err := vtime.NewExecutor(vtime.Config{
		DispatchOverhead: spec.DispatchOverhead,
		CoreStartup:      spec.CoreStartup,
		SerialWork:       int64(spec.SerialFraction * float64(total)),
	})
	if err != nil {
		return "", nil, err
	}
	virtual, err := ex.Scaling(tasks, spec.Cores)
	if err != nil {
		return "", nil, err
	}

	// Real measurement on the host, up to its core count.
	seq, err := collatz.ValidateSeq(spec.Lo, spec.Hi)
	if err != nil {
		return "", nil, err
	}
	var procs []int
	var times []time.Duration
	for p := 1; p <= runtime.GOMAXPROCS(0); p *= 2 {
		stats, err := perf.Measure(3, func() {
			r, err := collatz.ValidateDynamic(spec.Lo, spec.Hi, p)
			if err != nil || r.TotalSteps != seq.TotalSteps {
				panic(fmt.Sprintf("experiments: collatz mismatch: %v", err))
			}
		})
		if err != nil {
			return "", nil, err
		}
		procs = append(procs, p)
		times = append(times, stats.Min)
	}
	real, err := perf.ScalingStudy(procs, times)
	if err != nil {
		return "", nil, err
	}

	var b strings.Builder
	b.WriteString("Figure 3 — Collatz validation speedup and efficiency\n\n")
	fmt.Fprintf(&b, "workload: validate [%d, %d), checksum %d total steps\n\n", spec.Lo, spec.Hi, seq.TotalSteps)
	b.WriteString("virtual-time many-core executor (Manycore Testing Lab substitution):\n")
	fmt.Fprintf(&b, "%6s %12s %9s %11s\n", "cores", "makespan", "speedup", "efficiency")
	for _, pt := range virtual {
		fmt.Fprintf(&b, "%6d %12d %9.2f %10.1f%%\n", pt.Cores, pt.Makespan, pt.Speedup, pt.Efficiency*100)
	}
	fmt.Fprintf(&b, "\nreal measurement on this host (GOMAXPROCS=%d):\n", runtime.GOMAXPROCS(0))
	b.WriteString(perf.FormatScaling(real))
	return b.String(), &Figure3Result{Virtual: virtual, Real: real}, nil
}

// Table4 renders the enrollment table and Figure 5.
func Table4() (string, error) {
	var b strings.Builder
	b.WriteString("Table 4 — CSE445/598 enrollments since Fall 2006\n\n")
	b.WriteString(curriculum.FormatTable4(curriculum.EnrollmentTable))
	g, err := curriculum.GrowthFactor(curriculum.EnrollmentTable)
	if err != nil {
		return "", err
	}
	slope, err := curriculum.LinearTrend(curriculum.EnrollmentTable)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "\ngrowth 2006->2014: %.2fx; trend: %+.1f students/semester\n\n", g, slope)
	fig5, err := curriculum.Figure5(curriculum.EnrollmentTable)
	if err != nil {
		return "", err
	}
	b.WriteString(fig5)
	return b.String(), nil
}

// Table5 renders the evaluation-score table.
func Table5() (string, error) {
	var b strings.Builder
	b.WriteString("Table 5 — CSE445/598 student evaluation scores\n\n")
	b.WriteString(curriculum.FormatTable5(curriculum.EvaluationTable))
	m445, m598, err := curriculum.MeanScores(curriculum.EvaluationTable)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "\nmeans: CSE445 %.2f, CSE598 %.2f (out of 5.0)\n", m445, m598)
	return b.String(), nil
}

// Textbook renders the §VI chapter list with this repository's module
// coverage.
func Textbook() (string, error) {
	var b strings.Builder
	b.WriteString("§VI — textbook chapters mapped to repository modules\n\n")
	b.WriteString(curriculum.FormatTextbook(curriculum.TextbookChapters))
	covered, uncovered := curriculum.TextbookCoverage(curriculum.TextbookChapters)
	fmt.Fprintf(&b, "\n%d chapters covered, %d uncovered\n", covered, uncovered)
	if uncovered > 0 {
		return b.String(), fmt.Errorf("experiments: %d chapters uncovered", uncovered)
	}
	return b.String(), nil
}

// TablesACM renders the Tables 1–3 coverage report.
func TablesACM() (string, error) {
	report, uncovered := curriculum.CoverageReport(curriculum.ACMTopics)
	var b strings.Builder
	b.WriteString("Tables 1-3 — ACM CS topic coverage mapped to repository modules\n\n")
	b.WriteString(report)
	fmt.Fprintf(&b, "\n%d topics, %d uncovered\n", len(curriculum.ACMTopics), uncovered)
	if uncovered > 0 {
		return b.String(), fmt.Errorf("experiments: %d ACM topics uncovered", uncovered)
	}
	return b.String(), nil
}
