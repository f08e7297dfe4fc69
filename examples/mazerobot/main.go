// Mazerobot: the CSE101 web robotics environment (Figure 1/2) driven
// entirely through the Robot-as-a-Service API — create a maze, inspect it,
// run a student-style drop-down command program, compare the navigation
// algorithms on the same maze, and drive a "physical" mirror robot from
// the virtual one over a lossy link.
package main

import (
	"context"
	"fmt"
	"log"

	"soc/internal/core"
	"soc/internal/maze"
	"soc/internal/nav"
	"soc/internal/robot"
)

const program = `# student program: right-hand wall follower
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

func main() {
	ctx := context.Background()
	svc, err := robot.NewService(robot.NewSessions())
	must(err)

	// Everything below happens through service operations, exactly as
	// the web environment's drop-down UI would call them.
	out, err := svc.Invoke(ctx, "CreateMaze", core.Values{
		"width": 11, "height": 11, "algorithm": "dfs", "seed": 42,
	})
	must(err)
	session := out.Int("session")

	render, err := svc.Invoke(ctx, "Render", core.Values{"session": session})
	must(err)
	fmt.Println(render.Str("maze"))

	sense, err := svc.Invoke(ctx, "Sense", core.Values{"session": session})
	must(err)
	fmt.Printf("sensors: front=%d left=%d right=%d\n\n",
		sense.Int("front"), sense.Int("left"), sense.Int("right"))

	run, err := svc.Invoke(ctx, "RunProgram", core.Values{
		"session": session, "program": program,
	})
	must(err)
	fmt.Printf("program result: atGoal=%v steps=%d\n\n", run.Bool("atGoal"), run.Int("steps"))

	// Now compare algorithms on the same maze, resetting one robot between
	// runs; its listener tallies the sensor events each run raises.
	m, err := maze.Generate(11, 11, maze.DFS, 42)
	must(err)
	r, err := robot.New(m)
	must(err)
	events := map[robot.EventKind]int{}
	r.SetListener(func(e robot.Event) { events[e.Kind]++ })
	fmt.Println("algorithm comparison on the same maze:")
	for _, alg := range nav.Algorithms() {
		r.Reset()
		clear(events)
		ctrl, err := nav.New(alg, 1)
		must(err)
		ep, err := nav.Run(ctx, ctrl, r, 50000)
		must(err)
		fmt.Printf("  %-22s solved=%-5v steps=%4d (optimal %d), %d turns, %d bumps\n",
			ep.Algorithm, ep.Solved, ep.Steps, ep.Optimal, events[robot.EventTurned], events[robot.EventBlocked])
	}

	// Figure 1's pairing: the web robot drives a "physical" mirror over a
	// radio link that loses commands; Sync brings the mirror back.
	virtual, err := robot.New(m)
	must(err)
	physical, err := robot.New(m)
	must(err)
	twin, err := robot.NewTwin(virtual, physical, 0.3, 7)
	must(err)
	for i := 0; i < 40; i++ { // bump and turn, mostly right
		if twin.Forward() == nil {
			continue
		}
		if i%3 == 0 {
			twin.TurnLeft()
		} else {
			twin.TurnRight()
		}
	}
	fmt.Printf("\ntwin over a 30%% lossy link: %d commands sent, %d lost; virtual at %v, mirror at %v\n",
		twin.Sent(), twin.Dropped(), virtual.Position(), physical.Position())
	must(twin.Sync(ctx))
	fmt.Printf("after Sync: mirror at %v, in sync: %v\n", physical.Position(), twin.InSync())
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
