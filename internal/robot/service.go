package robot

import (
	"context"
	"fmt"
	"sync"

	"soc/internal/core"
	"soc/internal/maze"
)

// ServiceNamespace is the XML namespace of the Robot-as-a-Service facade.
const ServiceNamespace = "http://soc.asu.example/raas"

// Sessions manages independent robot instances for service clients, the
// way the web environment gives each student a virtual robot.
type Sessions struct {
	mu     sync.Mutex
	nextID int64
	robots map[int64]*Robot
}

// NewSessions returns an empty session store.
func NewSessions() *Sessions {
	return &Sessions{robots: make(map[int64]*Robot)}
}

// Create generates a maze and a robot in it, returning the session id.
func (s *Sessions) Create(w, h int, alg maze.Algorithm, seed int64) (int64, error) {
	m, err := maze.Generate(w, h, alg, seed)
	if err != nil {
		return 0, err
	}
	r, err := New(m)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	id := s.nextID
	s.robots[id] = r
	return id, nil
}

// Get returns the robot of a session.
func (s *Sessions) Get(id int64) (*Robot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.robots[id]
	if !ok {
		return nil, fmt.Errorf("robot: no session %d", id)
	}
	return r, nil
}

// Close removes a session.
func (s *Sessions) Close(id int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.robots[id]; !ok {
		return fmt.Errorf("robot: no session %d", id)
	}
	delete(s.robots, id)
	return nil
}

// NewService wraps a session store in the Robot-as-a-Service descriptor.
// All robot interaction — creating a maze, sensing, moving, running whole
// command programs — happens through service operations, exactly the
// paper's "services hide the hardware and programming details" point.
func NewService(sessions *Sessions) (*core.Service, error) {
	svc, err := core.NewService("Robot", ServiceNamespace,
		"Robot as a Service: simulated maze robot with range sensors")
	if err != nil {
		return nil, err
	}
	svc.Category = "robotics"

	err = svc.AddOperation(core.Operation{
		Name: "CreateMaze",
		Doc:  "creates a maze and a robot in it; returns the session id",
		Input: []core.Param{
			{Name: "width", Type: core.Int},
			{Name: "height", Type: core.Int},
			{Name: "algorithm", Type: core.String, Doc: "dfs|prim|division", Optional: true},
			{Name: "seed", Type: core.Int, Optional: true},
		},
		Output: []core.Param{{Name: "session", Type: core.Int}},
		Handler: func(_ context.Context, in core.Values) (core.Values, error) {
			alg := maze.DFS
			switch in.Str("algorithm") {
			case "", "dfs":
			case "prim":
				alg = maze.Prim
			case "division":
				alg = maze.Division
			default:
				return nil, fmt.Errorf("unknown algorithm %q", in.Str("algorithm"))
			}
			id, err := sessions.Create(int(in.Int("width")), int(in.Int("height")), alg, in.Int("seed"))
			if err != nil {
				return nil, err
			}
			return core.Values{"session": id}, nil
		},
	})
	if err != nil {
		return nil, err
	}

	sessionIn := []core.Param{{Name: "session", Type: core.Int}}
	withRobot := func(fn func(r *Robot, in core.Values) (core.Values, error)) core.Handler {
		return func(_ context.Context, in core.Values) (core.Values, error) {
			r, err := sessions.Get(in.Int("session"))
			if err != nil {
				return nil, err
			}
			return fn(r, in)
		}
	}

	ops := []core.Operation{
		{
			Name: "Forward", Doc: "moves one cell forward; blocked reports collision=true",
			Input:  sessionIn,
			Output: []core.Param{{Name: "collision", Type: core.Bool}, {Name: "atGoal", Type: core.Bool}},
			Handler: withRobot(func(r *Robot, _ core.Values) (core.Values, error) {
				err := r.Forward()
				return core.Values{"collision": err != nil, "atGoal": r.AtGoal()}, nil
			}),
		},
		{
			Name: "TurnLeft", Doc: "turns 90° left",
			Input:  sessionIn,
			Output: []core.Param{{Name: "heading", Type: core.String}},
			Handler: withRobot(func(r *Robot, _ core.Values) (core.Values, error) {
				r.TurnLeft()
				return core.Values{"heading": r.Heading().String()}, nil
			}),
		},
		{
			Name: "TurnRight", Doc: "turns 90° right",
			Input:  sessionIn,
			Output: []core.Param{{Name: "heading", Type: core.String}},
			Handler: withRobot(func(r *Robot, _ core.Values) (core.Values, error) {
				r.TurnRight()
				return core.Values{"heading": r.Heading().String()}, nil
			}),
		},
		{
			Name: "Sense", Doc: "reads the three range sensors and the goal flag",
			Input: sessionIn,
			Output: []core.Param{
				{Name: "front", Type: core.Int}, {Name: "left", Type: core.Int},
				{Name: "right", Type: core.Int}, {Name: "atGoal", Type: core.Bool},
			},
			Handler: withRobot(func(r *Robot, _ core.Values) (core.Values, error) {
				return core.Values{
					"front":  int64(r.FrontDistance()),
					"left":   int64(r.LeftDistance()),
					"right":  int64(r.RightDistance()),
					"atGoal": r.AtGoal(),
				}, nil
			}),
		},
		{
			Name: "State", Doc: "reports pose and odometry",
			Input: sessionIn,
			Output: []core.Param{
				{Name: "x", Type: core.Int}, {Name: "y", Type: core.Int},
				{Name: "heading", Type: core.String}, {Name: "steps", Type: core.Int},
				{Name: "bumps", Type: core.Int}, {Name: "atGoal", Type: core.Bool},
			},
			Handler: withRobot(func(r *Robot, _ core.Values) (core.Values, error) {
				return core.Values{
					"x": int64(r.Position().X), "y": int64(r.Position().Y),
					"heading": r.Heading().String(), "steps": int64(r.Steps()),
					"bumps": int64(r.Bumps()), "atGoal": r.AtGoal(),
				}, nil
			}),
		},
		{
			Name: "Render", Doc: "returns the maze as ASCII art",
			Input:  sessionIn,
			Output: []core.Param{{Name: "maze", Type: core.String}},
			Handler: withRobot(func(r *Robot, _ core.Values) (core.Values, error) {
				return core.Values{"maze": r.Maze().String()}, nil
			}),
		},
		{
			Name: "RunProgram",
			Doc:  "parses and runs a drop-down command program on the session robot",
			Input: []core.Param{
				{Name: "session", Type: core.Int},
				{Name: "program", Type: core.String},
				{Name: "budget", Type: core.Int, Optional: true},
			},
			Output: []core.Param{
				{Name: "ok", Type: core.Bool}, {Name: "error", Type: core.String},
				{Name: "steps", Type: core.Int}, {Name: "atGoal", Type: core.Bool},
			},
			Handler: func(ctx context.Context, in core.Values) (core.Values, error) {
				r, err := sessions.Get(in.Int("session"))
				if err != nil {
					return nil, err
				}
				prog, err := ParseProgram(in.Str("program"))
				if err != nil {
					return nil, err
				}
				runErr := prog.Run(ctx, r, int(in.Int("budget")))
				out := core.Values{
					"ok": runErr == nil, "error": "",
					"steps": int64(r.Steps()), "atGoal": r.AtGoal(),
				}
				if runErr != nil {
					out["error"] = runErr.Error()
				}
				return out, nil
			},
		},
		{
			Name: "CloseSession", Doc: "releases a robot session",
			Input:  sessionIn,
			Output: []core.Param{{Name: "closed", Type: core.Bool}},
			Handler: func(_ context.Context, in core.Values) (core.Values, error) {
				if err := sessions.Close(in.Int("session")); err != nil {
					return nil, err
				}
				return core.Values{"closed": true}, nil
			},
		},
	}
	for _, op := range ops {
		if err := svc.AddOperation(op); err != nil {
			return nil, err
		}
	}
	return svc, nil
}
