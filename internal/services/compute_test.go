package services

import (
	"testing"

	"soc/internal/core"
)

func TestComputeCollatz(t *testing.T) {
	svc, err := NewCompute()
	if err != nil {
		t.Fatal(err)
	}
	out, err := svc.Invoke(ctx, "CollatzSteps", core.Values{"n": 27})
	if err != nil || out.Int("steps") != 111 {
		t.Errorf("CollatzSteps(27): %v %v, want 111 steps", out, err)
	}
	out, err = svc.Invoke(ctx, "CollatzValidate", core.Values{"low": 1, "high": 1000})
	if err != nil {
		t.Fatal(err)
	}
	if out.Int("verified") != 999 || out.Int("maxAt") != 871 || out.Int("maxSteps") != 178 {
		t.Errorf("CollatzValidate[1,1000): %v", out)
	}
	for _, bad := range []core.Values{
		{"n": 0},
		{"low": 0, "high": 10},
		{"low": 10, "high": 5},
		{"low": 1, "high": 10000000},
	} {
		op := "CollatzValidate"
		if _, ok := bad["n"]; ok {
			op = "CollatzSteps"
		}
		if _, err := svc.Invoke(ctx, op, bad); err == nil {
			t.Errorf("%s%v accepted", op, bad)
		}
	}
}

func TestComputeMaze(t *testing.T) {
	svc, err := NewCompute()
	if err != nil {
		t.Fatal(err)
	}
	gen := core.Values{"width": 8, "height": 8, "algorithm": "dfs", "seed": 42}
	out, err := svc.Invoke(ctx, "MazeGenerate", gen)
	if err != nil {
		t.Fatal(err)
	}
	if out.Str("maze") == "" || out.Int("pathLength") < 14 {
		t.Fatalf("MazeGenerate: pathLength=%d", out.Int("pathLength"))
	}
	// Determinism in seed is what makes the operation idempotent.
	again, err := svc.Invoke(ctx, "MazeGenerate", gen)
	if err != nil || again.Str("maze") != out.Str("maze") {
		t.Errorf("same seed produced a different maze")
	}
	// Scoring the generated document agrees with the generator.
	score, err := svc.Invoke(ctx, "MazeScore", core.Values{"maze": out.Str("maze")})
	if err != nil || !score.Bool("solvable") || score.Int("pathLength") != out.Int("pathLength") {
		t.Errorf("MazeScore: %v %v, want solvable path %d", score, err, out.Int("pathLength"))
	}
	if _, err := svc.Invoke(ctx, "MazeGenerate", core.Values{"width": 500, "height": 8, "algorithm": "dfs"}); err == nil {
		t.Error("oversized maze accepted")
	}
	if _, err := svc.Invoke(ctx, "MazeGenerate", core.Values{"width": 8, "height": 8, "algorithm": "bogo"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := svc.Invoke(ctx, "MazeScore", core.Values{"maze": "not a maze"}); err == nil {
		t.Error("garbage maze document accepted")
	}
}

func TestComputeOperationsAllIdempotent(t *testing.T) {
	svc, err := NewCompute()
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range svc.Operations() {
		if !op.Idempotent {
			t.Errorf("%s is pure but not marked Idempotent", op.Name)
		}
	}
}
