package nav

import (
	"context"
	"strings"
	"testing"

	"soc/internal/maze"
	"soc/internal/robot"
)

func runOn(t *testing.T, alg string, m *maze.Maze, budget int) Episode {
	t.Helper()
	r, err := robot.New(m)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(alg, 1)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := Run(context.Background(), ctrl, r, budget)
	if err != nil {
		t.Fatalf("Run(%s): %v", alg, err)
	}
	return ep
}

func TestUnknownAlgorithm(t *testing.T) {
	if _, err := New("dijkstra-magic", 0); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestAlgorithmsList(t *testing.T) {
	algs := Algorithms()
	if len(algs) != 5 || algs[0] != AlgTwoDistance {
		t.Errorf("algorithms = %v", algs)
	}
	for _, a := range algs {
		if _, err := New(a, 0); err != nil {
			t.Errorf("New(%s): %v", a, err)
		}
	}
}

func TestOracleIsOptimal(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		m, _ := maze.Generate(11, 11, maze.DFS, seed)
		ep := runOn(t, AlgOracle, m, 0)
		if !ep.Solved {
			t.Fatalf("seed %d: oracle failed", seed)
		}
		if ep.Steps != ep.Optimal {
			t.Errorf("seed %d: oracle took %d steps, optimal %d", seed, ep.Steps, ep.Optimal)
		}
		if ep.Bumps != 0 {
			t.Errorf("seed %d: oracle bumped %d times", seed, ep.Bumps)
		}
	}
}

func TestWallFollowersSolvePerfectMazes(t *testing.T) {
	for _, alg := range []string{AlgWallLeft, AlgWallRight} {
		for seed := int64(0); seed < 8; seed++ {
			m, _ := maze.Generate(9, 9, maze.DFS, seed)
			ep := runOn(t, alg, m, 20000)
			if !ep.Solved {
				t.Errorf("%s seed %d: unsolved", alg, seed)
			}
			if ep.Steps < ep.Optimal {
				t.Errorf("%s seed %d: %d steps beats optimal %d", alg, seed, ep.Steps, ep.Optimal)
			}
		}
	}
}

func TestTwoDistanceSolvesPerfectMazes(t *testing.T) {
	solved := 0
	for seed := int64(0); seed < 12; seed++ {
		m, _ := maze.Generate(9, 9, maze.DFS, seed)
		ep := runOn(t, AlgTwoDistance, m, 20000)
		if ep.Solved {
			solved++
		}
	}
	// The greedy+escape controller must solve the large majority; its
	// occasional failure versus wall-following is the lesson.
	if solved < 10 {
		t.Errorf("two-distance solved only %d/12", solved)
	}
}

func TestTwoDistanceBeatsWallFollowOnOpenMazes(t *testing.T) {
	// On division mazes (rooms, multiple routes) greedy should usually
	// take fewer steps than wall-following when both solve.
	greedyWins := 0
	comparisons := 0
	for seed := int64(0); seed < 10; seed++ {
		m, _ := maze.Generate(11, 11, maze.Division, seed)
		epG := runOn(t, AlgTwoDistance, m, 20000)
		m2, _ := maze.Generate(11, 11, maze.Division, seed)
		epW := runOn(t, AlgWallRight, m2, 20000)
		if epG.Solved && epW.Solved {
			comparisons++
			if epG.Steps <= epW.Steps {
				greedyWins++
			}
		}
	}
	if comparisons == 0 {
		t.Fatal("no comparable runs")
	}
	if greedyWins*2 < comparisons {
		t.Errorf("greedy won only %d/%d open-maze comparisons", greedyWins, comparisons)
	}
}

func TestRandomWalkEventuallySolvesSmallMaze(t *testing.T) {
	m, _ := maze.Generate(5, 5, maze.DFS, 3)
	ep := runOn(t, AlgRandom, m, 100000)
	if !ep.Solved {
		t.Error("random walk failed on tiny maze with huge budget")
	}
}

func TestBudgetExhaustionIsNotAnError(t *testing.T) {
	m, _ := maze.Generate(15, 15, maze.DFS, 1)
	r, _ := robot.New(m)
	ctrl, _ := New(AlgRandom, 1)
	ep, err := Run(context.Background(), ctrl, r, 3)
	if err != nil {
		t.Fatalf("budget exhaustion errored: %v", err)
	}
	if ep.Solved {
		t.Error("solved in 3 steps?!")
	}
}

func TestRunRecordsOptimal(t *testing.T) {
	m, _ := maze.Generate(9, 9, maze.DFS, 2)
	ep := runOn(t, AlgOracle, m, 0)
	want, _ := m.ShortestPath()
	if ep.Optimal != len(want)-1 {
		t.Errorf("optimal = %d, want %d", ep.Optimal, len(want)-1)
	}
}

func TestTwoDistanceMachineExport(t *testing.T) {
	ctrl, _ := New(AlgTwoDistance, 0)
	td, ok := ctrl.(*twoDistance)
	if !ok {
		t.Fatal("wrong controller type")
	}
	dot := td.machine.DOT()
	for _, want := range []string{"decide", "escape", "done", "greedy-unvisited"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func TestEvaluateCorpus(t *testing.T) {
	spec := CorpusSpec{Sizes: []int{7, 9}, Seeds: 4, Algorithm: maze.DFS, Budget: 20000}
	sums, err := Evaluate(context.Background(), []string{AlgOracle, AlgWallRight}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 {
		t.Fatalf("summaries = %v", sums)
	}
	oracle := sums[0]
	if oracle.Runs != 8 || oracle.Solved != 8 || oracle.SolveRate() != 1 {
		t.Errorf("oracle summary = %+v", oracle)
	}
	if oracle.MeanExcess < 0.99 || oracle.MeanExcess > 1.01 {
		t.Errorf("oracle excess = %v", oracle.MeanExcess)
	}
	wall := sums[1]
	if wall.Solved != 8 {
		t.Errorf("wall summary = %+v", wall)
	}
	if wall.MeanSteps < oracle.MeanSteps {
		t.Errorf("wall (%v) beat oracle (%v)", wall.MeanSteps, oracle.MeanSteps)
	}
	out := FormatSummaries(sums)
	if !strings.Contains(out, AlgOracle) || !strings.Contains(out, "100%") {
		t.Errorf("table:\n%s", out)
	}
}

func TestEvaluateValidation(t *testing.T) {
	if _, err := Evaluate(context.Background(), nil, CorpusSpec{Sizes: []int{5}, Seeds: 1}); err == nil {
		t.Error("empty algorithms accepted")
	}
	if _, err := Evaluate(context.Background(), []string{AlgOracle}, CorpusSpec{}); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := Evaluate(context.Background(), []string{"nope"}, CorpusSpec{Sizes: []int{5}, Seeds: 1}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestSummaryZeroRuns(t *testing.T) {
	var s Summary
	if s.SolveRate() != 0 {
		t.Error("zero-run solve rate wrong")
	}
}
