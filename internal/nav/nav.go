// Package nav implements the maze-navigation algorithms the CSE101 course
// teaches through the robotics environment: the short-distance greedy
// ("two-distance") algorithm of the paper's Figure 2, left- and right-hand
// wall following, a random walk, and the BFS-optimal oracle baseline.
// Controllers are expressed as finite state machines over the robot
// environment (soc/internal/fsm + soc/internal/robot) and evaluated with
// uniform episode metrics.
package nav

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"soc/internal/fsm"
	"soc/internal/maze"
	"soc/internal/robot"
)

// Controller names.
const (
	AlgTwoDistance = "two-distance-greedy"
	AlgWallLeft    = "wall-follow-left"
	AlgWallRight   = "wall-follow-right"
	AlgRandom      = "random-walk"
	AlgOracle      = "bfs-oracle"
)

// Algorithms lists the controller names in canonical order.
func Algorithms() []string {
	return []string{AlgTwoDistance, AlgWallRight, AlgWallLeft, AlgRandom, AlgOracle}
}

// Episode is the outcome of one navigation run.
type Episode struct {
	Algorithm string
	Solved    bool
	Steps     int // forward moves
	Turns     int
	Bumps     int
	Visited   int // distinct cells entered
	Optimal   int // BFS shortest-path length for reference
}

// Controller drives a robot toward the goal.
type Controller interface {
	// Name identifies the algorithm.
	Name() string
	// Step performs one decision; it is called until the robot reaches
	// the goal or the budget runs out.
	Step(ctx context.Context, r *robot.Robot) error
}

// New returns a controller by algorithm name. seed feeds the stochastic
// controllers.
func New(name string, seed int64) (Controller, error) {
	switch name {
	case AlgTwoDistance:
		return newTwoDistance(), nil
	case AlgWallLeft:
		return &wallFollow{left: true}, nil
	case AlgWallRight:
		return &wallFollow{left: false}, nil
	case AlgRandom:
		return &randomWalk{rng: rand.New(rand.NewSource(seed))}, nil
	case AlgOracle:
		return &oracle{}, nil
	default:
		return nil, fmt.Errorf("nav: unknown algorithm %q", name)
	}
}

// ErrBudget reports a run exceeding the step budget.
var ErrBudget = errors.New("nav: step budget exceeded")

// Run drives the controller until the goal or the budget is exhausted and
// returns the episode metrics. A run that cannot finish is not an error —
// Solved is simply false (greedy legitimately fails on some mazes, which
// is the pedagogical point).
func Run(ctx context.Context, ctrl Controller, r *robot.Robot, budget int) (Episode, error) {
	if budget <= 0 {
		budget = 10000
	}
	optimal := -1
	if path, err := r.Maze().ShortestPath(); err == nil {
		optimal = len(path) - 1
	}
	var runErr error
	for i := 0; !r.AtGoal(); i++ {
		if i >= budget {
			runErr = ErrBudget
			break
		}
		if err := ctx.Err(); err != nil {
			return Episode{}, err
		}
		if err := ctrl.Step(ctx, r); err != nil {
			runErr = err
			break
		}
	}
	ep := Episode{
		Algorithm: ctrl.Name(),
		Solved:    r.AtGoal(),
		Steps:     r.Steps(),
		Turns:     r.Turns(),
		Bumps:     r.Bumps(),
		Visited:   r.Visited(),
		Optimal:   optimal,
	}
	if runErr != nil && !errors.Is(runErr, ErrBudget) && !ep.Solved {
		return ep, runErr
	}
	return ep, nil
}

// twoDistance is the paper's Figure 2 algorithm as an FSM: in the DECIDE
// state the robot compares the two goal-axis distances (|dx| and |dy|) and
// prefers the open direction that most reduces the larger one; when the
// preferred directions are blocked or lead to an already-visited cell it
// falls back to any open unvisited direction, then to wall-following for
// one step (ESCAPE state) to get around obstacles.
type twoDistance struct {
	machine *fsm.Machine[*robot.Robot]
	runner  *fsm.Runner[*robot.Robot]
}

func newTwoDistance() *twoDistance {
	move := func(d func(r *robot.Robot) (maze.Dir, bool)) fsm.Action[*robot.Robot] {
		return func(_ context.Context, r *robot.Robot) error {
			dir, ok := d(r)
			if !ok {
				return nil
			}
			r.Face(dir)
			return r.Forward()
		}
	}
	m, err := fsm.NewBuilder[*robot.Robot]("two-distance").
		State("decide", "escape", "done").
		Initial("decide").
		Accepting("done").
		On(fsm.Transition[*robot.Robot]{
			From: "decide", To: "done", Label: "at-goal",
			Guard: func(r *robot.Robot) bool { return r.AtGoal() },
		}).
		On(fsm.Transition[*robot.Robot]{
			From: "decide", To: "decide", Label: "greedy-unvisited",
			Guard:  func(r *robot.Robot) bool { _, ok := greedyDir(r, true); return ok },
			Action: move(func(r *robot.Robot) (maze.Dir, bool) { return greedyDir(r, true) }),
		}).
		On(fsm.Transition[*robot.Robot]{
			From: "decide", To: "escape", Label: "blocked",
		}).
		On(fsm.Transition[*robot.Robot]{
			From: "escape", To: "decide", Label: "least-visited",
			Action: move(leastVisitedDir),
		}).
		Build()
	if err != nil {
		panic(err) // static definition; failure is a programming bug
	}
	return &twoDistance{machine: m, runner: m.NewRunner()}
}

func (t *twoDistance) Name() string { return AlgTwoDistance }

// TwoDistanceDOT renders the two-distance controller's state machine in
// Graphviz DOT — the mechanical form of the paper's Figure 2.
func TwoDistanceDOT() string { return newTwoDistance().machine.DOT() }

func (t *twoDistance) Step(ctx context.Context, r *robot.Robot) error {
	return t.runner.Step(ctx, r)
}

// greedyDir picks the open direction that reduces the goal distance,
// preferring the axis with the larger remaining distance (the
// two-distance comparison). When unvisitedOnly, directions into visited
// cells are skipped.
func greedyDir(r *robot.Robot, unvisitedOnly bool) (maze.Dir, bool) {
	dx, dy := r.GoalDelta()
	var prefs []maze.Dir
	xDir := maze.East
	if dx < 0 {
		xDir = maze.West
	}
	yDir := maze.South
	if dy < 0 {
		yDir = maze.North
	}
	if abs(dx) >= abs(dy) {
		prefs = []maze.Dir{xDir, yDir}
	} else {
		prefs = []maze.Dir{yDir, xDir}
	}
	for _, d := range prefs {
		if d == xDir && dx == 0 {
			continue
		}
		if d == yDir && dy == 0 {
			continue
		}
		if !r.Maze().CanMove(r.Position(), d) {
			continue
		}
		if unvisitedOnly && r.VisitCount(r.Position().Move(d)) > 0 {
			continue
		}
		return d, true
	}
	if !unvisitedOnly {
		return 0, false
	}
	// Any open unvisited direction.
	for _, d := range r.Maze().OpenDirections(r.Position()) {
		if r.VisitCount(r.Position().Move(d)) == 0 {
			return d, true
		}
	}
	return 0, false
}

// leastVisitedDir returns the open direction whose target cell has the
// fewest visits — a Tremaux-style escape that guarantees progress.
func leastVisitedDir(r *robot.Robot) (maze.Dir, bool) {
	best := maze.Dir(-1)
	bestCount := int(^uint(0) >> 1)
	for _, d := range r.Maze().OpenDirections(r.Position()) {
		if c := r.VisitCount(r.Position().Move(d)); c < bestCount {
			best, bestCount = d, c
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}

// wallFollow keeps one hand on a wall: for the right-hand rule, turn right
// if open, else forward, else turn left. Complete for simply-connected
// mazes with the goal on a wall-connected path.
type wallFollow struct{ left bool }

func (w *wallFollow) Name() string {
	if w.left {
		return AlgWallLeft
	}
	return AlgWallRight
}

func (w *wallFollow) Step(_ context.Context, r *robot.Robot) error {
	side, other := r.RightDistance(), func() { r.TurnRight() }
	back := func() { r.TurnLeft() }
	if w.left {
		side, other = r.LeftDistance(), func() { r.TurnLeft() }
		back = func() { r.TurnRight() }
	}
	switch {
	case side > 0:
		other()
		return r.Forward()
	case r.FrontDistance() > 0:
		return r.Forward()
	default:
		back()
		return nil
	}
}

// randomWalk turns uniformly toward a random open direction each step.
type randomWalk struct{ rng *rand.Rand }

func (randomWalk) Name() string { return AlgRandom }

func (w *randomWalk) Step(_ context.Context, r *robot.Robot) error {
	open := r.Maze().OpenDirections(r.Position())
	if len(open) == 0 {
		return fmt.Errorf("nav: robot sealed in at %v", r.Position())
	}
	d := open[w.rng.Intn(len(open))]
	r.Face(d)
	return r.Forward()
}

// oracle follows the BFS shortest path — the upper baseline.
type oracle struct {
	path []maze.Cell
	next int
}

func (oracle) Name() string { return AlgOracle }

func (o *oracle) Step(_ context.Context, r *robot.Robot) error {
	if o.path == nil {
		p, err := r.Maze().ShortestPath()
		if err != nil {
			return err
		}
		o.path = p
		o.next = 1
	}
	if o.next >= len(o.path) {
		return errors.New("nav: oracle path exhausted")
	}
	target := o.path[o.next]
	cur := r.Position()
	for d := maze.North; d <= maze.West; d++ {
		if cur.Move(d) == target {
			r.Face(d)
			if err := r.Forward(); err != nil {
				return err
			}
			o.next++
			return nil
		}
	}
	return fmt.Errorf("nav: oracle lost at %v", cur)
}
