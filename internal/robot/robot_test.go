package robot

import (
	"context"
	"errors"
	"strings"
	"testing"

	"soc/internal/maze"
)

// corridor builds a 4x1-style maze: a 4x2 maze with an open top row,
// start at (0,0), goal at (3,0).
func corridor(t *testing.T) *maze.Maze {
	t.Helper()
	m, err := maze.New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < 3; x++ {
		if err := m.SetWall(maze.Cell{X: x, Y: 0}, maze.East, false); err != nil {
			t.Fatal(err)
		}
	}
	m.Start = maze.Cell{X: 0, Y: 0}
	m.Goal = maze.Cell{X: 3, Y: 0}
	return m
}

func TestForwardAndSensors(t *testing.T) {
	r, err := New(corridor(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.Heading() != maze.East {
		t.Fatalf("initial heading = %s", r.Heading())
	}
	if r.FrontDistance() != 3 || r.LeftDistance() != 0 || r.RightDistance() != 0 {
		t.Errorf("sensors = %d/%d/%d", r.FrontDistance(), r.LeftDistance(), r.RightDistance())
	}
	for i := 0; i < 3; i++ {
		if err := r.Forward(); err != nil {
			t.Fatalf("Forward %d: %v", i, err)
		}
	}
	if !r.AtGoal() || r.Steps() != 3 {
		t.Errorf("atGoal=%v steps=%d", r.AtGoal(), r.Steps())
	}
	if err := r.Forward(); !errors.Is(err, ErrCollision) {
		t.Errorf("wall move: %v", err)
	}
	if r.Bumps() != 1 {
		t.Errorf("bumps = %d", r.Bumps())
	}
}

func TestTurnsAndFace(t *testing.T) {
	r, _ := New(corridor(t))
	r.TurnLeft()
	if r.Heading() != maze.North {
		t.Errorf("after left: %s", r.Heading())
	}
	r.TurnRight()
	r.TurnRight()
	if r.Heading() != maze.South {
		t.Errorf("after rights: %s", r.Heading())
	}
	r.Face(maze.West)
	if r.Heading() != maze.West {
		t.Errorf("Face: %s", r.Heading())
	}
	if r.Turns() != 4 {
		t.Errorf("turns = %d", r.Turns())
	}
}

func TestEvents(t *testing.T) {
	r, _ := New(corridor(t))
	var kinds []EventKind
	r.SetListener(func(e Event) { kinds = append(kinds, e.Kind) })
	_ = r.Forward()
	r.TurnLeft()
	_ = r.Forward() // blocked (north wall)
	r.TurnRight()
	_ = r.Forward()
	_ = r.Forward() // reaches goal
	want := []EventKind{EventMoved, EventTurned, EventBlocked, EventTurned, EventMoved, EventMoved, EventGoal}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("event[%d] = %s, want %s", i, kinds[i], want[i])
		}
	}
}

func TestVisitedAndReset(t *testing.T) {
	r, _ := New(corridor(t))
	_ = r.Forward()
	_ = r.Forward()
	if r.Visited() != 3 {
		t.Errorf("visited = %d", r.Visited())
	}
	if r.VisitCount(maze.Cell{X: 1, Y: 0}) != 1 {
		t.Errorf("visit count wrong")
	}
	r.Reset()
	if r.Steps() != 0 || r.Position() != r.Maze().Start || r.Visited() != 1 {
		t.Error("reset incomplete")
	}
}

func TestGoalDelta(t *testing.T) {
	r, _ := New(corridor(t))
	dx, dy := r.GoalDelta()
	if dx != 3 || dy != 0 {
		t.Errorf("delta = %d,%d", dx, dy)
	}
}

func TestNewNilMaze(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil maze accepted")
	}
}

func TestProgramStraightLine(t *testing.T) {
	r, _ := New(corridor(t))
	prog, err := ParseProgram("FORWARD\nFORWARD\nFORWARD")
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Run(context.Background(), r, 0); err != nil {
		t.Fatal(err)
	}
	if !r.AtGoal() {
		t.Error("not at goal")
	}
}

func TestProgramRepeat(t *testing.T) {
	r, _ := New(corridor(t))
	prog, err := ParseProgram("REPEAT 3\n  FORWARD\nEND")
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Run(context.Background(), r, 0); err != nil {
		t.Fatal(err)
	}
	if r.Steps() != 3 {
		t.Errorf("steps = %d", r.Steps())
	}
}

func TestProgramCollisionAborts(t *testing.T) {
	r, _ := New(corridor(t))
	prog, _ := ParseProgram("REPEAT 10\nFORWARD\nEND")
	err := prog.Run(context.Background(), r, 0)
	if !errors.Is(err, ErrCollision) {
		t.Errorf("err = %v", err)
	}
	if r.Steps() != 3 {
		t.Errorf("steps before collision = %d", r.Steps())
	}
}

// wallFollowerProgram is the right-hand-rule written in the drop-down
// language — the program a CSE101 student composes in the web UI.
const wallFollowerProgram = `
# right-hand wall following
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

func TestProgramWallFollowerSolvesGeneratedMazes(t *testing.T) {
	prog, err := ParseProgram(wallFollowerProgram)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 10; seed++ {
		m, err := maze.Generate(9, 9, maze.DFS, seed)
		if err != nil {
			t.Fatal(err)
		}
		r, _ := New(m)
		if err := prog.Run(context.Background(), r, 100000); err != nil {
			t.Errorf("seed %d: %v", seed, err)
			continue
		}
		if !r.AtGoal() {
			t.Errorf("seed %d: wall follower did not reach goal", seed)
		}
	}
}

func TestProgramIfConditions(t *testing.T) {
	r, _ := New(corridor(t))
	prog, err := ParseProgram(`
IF FRONT_OPEN
  FORWARD
END
IF AT_GOAL
  LEFT
ELSE
  FORWARD
END`)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Run(context.Background(), r, 0); err != nil {
		t.Fatal(err)
	}
	if r.Steps() != 2 {
		t.Errorf("steps = %d", r.Steps())
	}
}

func TestProgramBudget(t *testing.T) {
	m, _ := maze.New(3, 3) // no exit: robot can never reach goal
	m.Goal = maze.Cell{X: 2, Y: 2}
	r, _ := New(m)
	prog, _ := ParseProgram("WHILE NOT_GOAL\nLEFT\nEND")
	err := prog.Run(context.Background(), r, 50)
	if !errors.Is(err, ErrBudget) {
		t.Errorf("err = %v", err)
	}
}

func TestProgramParseErrors(t *testing.T) {
	cases := []string{
		"FLY",
		"FORWARD 2",
		"REPEAT\nFORWARD\nEND",
		"REPEAT x\nFORWARD\nEND",
		"REPEAT 0\nFORWARD\nEND",
		"REPEAT 2\nFORWARD",
		"IF\nFORWARD\nEND",
		"IF SUNNY\nFORWARD\nEND",
		"WHILE FOREVER\nFORWARD\nEND",
		"END",
		"ELSE",
	}
	for _, c := range cases {
		if _, err := ParseProgram(c); !errors.Is(err, ErrProgram) {
			t.Errorf("ParseProgram(%q) = %v", c, err)
		}
	}
}

func TestProgramCommentsAndCase(t *testing.T) {
	prog, err := ParseProgram("# a comment\n\nforward\nLeft\n")
	if err != nil {
		t.Fatal(err)
	}
	r, _ := New(corridor(t))
	if err := prog.Run(context.Background(), r, 0); err != nil {
		t.Fatal(err)
	}
	if r.Steps() != 1 || r.Heading() != maze.North {
		t.Error("case-insensitive parse failed")
	}
}

func TestProgramContextCancel(t *testing.T) {
	r, _ := New(corridor(t))
	prog, _ := ParseProgram("FORWARD")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := prog.Run(ctx, r, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v", err)
	}
}

func TestSessions(t *testing.T) {
	s := NewSessions()
	id, err := s.Create(5, 5, maze.DFS, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.robots) != 1 {
		t.Errorf("len = %d", len(s.robots))
	}
	if _, err := s.Get(id); err != nil {
		t.Errorf("Get: %v", err)
	}
	if _, err := s.Get(999); err == nil {
		t.Error("missing session found")
	}
	if err := s.Close(id); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := s.Close(id); err == nil {
		t.Error("double close accepted")
	}
	if _, err := s.Create(1, 1, maze.DFS, 1); err == nil {
		t.Error("bad maze size accepted")
	}
}

func TestServiceOperations(t *testing.T) {
	svc, err := NewService(NewSessions())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	out, err := svc.Invoke(ctx, "CreateMaze", map[string]any{
		"width": 7, "height": 7, "algorithm": "dfs", "seed": 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	session := out["session"]

	sense, err := svc.Invoke(ctx, "Sense", map[string]any{"session": session})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sense["front"]; !ok {
		t.Errorf("sense = %v", sense)
	}

	run, err := svc.Invoke(ctx, "RunProgram", map[string]any{
		"session": session,
		"program": wallFollowerProgram,
	})
	if err != nil {
		t.Fatal(err)
	}
	if run["atGoal"] != true || run["ok"] != true {
		t.Errorf("run = %v", run)
	}

	state, err := svc.Invoke(ctx, "State", map[string]any{"session": session})
	if err != nil {
		t.Fatal(err)
	}
	if state["atGoal"] != true {
		t.Errorf("state = %v", state)
	}

	render, err := svc.Invoke(ctx, "Render", map[string]any{"session": session})
	if err != nil || !strings.Contains(render["maze"].(string), "G") {
		t.Errorf("render: %v %v", render, err)
	}

	if _, err := svc.Invoke(ctx, "CreateMaze", map[string]any{
		"width": 5, "height": 5, "algorithm": "voronoi",
	}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := svc.Invoke(ctx, "Forward", map[string]any{"session": 424242}); err == nil {
		t.Error("missing session accepted")
	}

	closed, err := svc.Invoke(ctx, "CloseSession", map[string]any{"session": session})
	if err != nil || closed["closed"] != true {
		t.Errorf("close: %v %v", closed, err)
	}

	badProg, err := svc.Invoke(ctx, "CreateMaze", map[string]any{"width": 5, "height": 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Invoke(ctx, "RunProgram", map[string]any{
		"session": badProg["session"], "program": "JUMP",
	}); err == nil {
		t.Error("bad program accepted")
	}
	// Colliding program: reported via ok=false, not an invocation error.
	collide, err := svc.Invoke(ctx, "RunProgram", map[string]any{
		"session": badProg["session"], "program": "REPEAT 100\nFORWARD\nEND",
	})
	if err != nil {
		t.Fatal(err)
	}
	if collide["ok"] != false || collide["error"] == "" {
		t.Errorf("collide = %v", collide)
	}
}
