package robot

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"soc/internal/maze"
)

// Twin pairs the virtual robot of the web environment with a "physical"
// robot mirror — the paper's Figure 1 notes that "the virtual robot in
// the Web can communicate and synchronize with the physical robot to add
// excitement to the learners". Commands issued to the twin drive the
// primary (virtual) robot and are forwarded to the mirror over an
// unreliable link (a tunable drop rate models radio loss to an NXT
// brick); Sync detects divergence and drives the mirror back to the
// primary's pose with real movement commands.
type Twin struct {
	primary *Robot
	mirror  *Robot
	// dropRate is the probability a forwarded command is lost.
	dropRate float64
	rng      *rand.Rand
	dropped  int
	sent     int
}

// ErrTwin reports invalid twin construction.
var ErrTwin = errors.New("robot: invalid twin")

// NewTwin pairs two robots that must share the same maze geometry.
func NewTwin(primary, mirror *Robot, dropRate float64, seed int64) (*Twin, error) {
	if primary == nil || mirror == nil {
		return nil, fmt.Errorf("%w: nil robot", ErrTwin)
	}
	if dropRate < 0 || dropRate >= 1 {
		return nil, fmt.Errorf("%w: drop rate %v", ErrTwin, dropRate)
	}
	pm, mm := primary.Maze(), mirror.Maze()
	if pm.W != mm.W || pm.H != mm.H || pm.String() != mm.String() {
		return nil, fmt.Errorf("%w: mazes differ", ErrTwin)
	}
	return &Twin{primary: primary, mirror: mirror, dropRate: dropRate,
		rng: rand.New(rand.NewSource(seed))}, nil
}

// Dropped reports how many forwarded commands the link lost.
func (t *Twin) Dropped() int { return t.dropped }

// Sent reports how many commands were forwarded (including lost ones).
func (t *Twin) Sent() int { return t.sent }

// forward delivers cmd to the mirror unless the link drops it.
func (t *Twin) forwardCmd(cmd func(*Robot) error) error {
	t.sent++
	if t.rng.Float64() < t.dropRate {
		t.dropped++
		return nil
	}
	return cmd(t.mirror)
}

// Forward moves the primary one cell and forwards the command.
func (t *Twin) Forward() error {
	if err := t.primary.Forward(); err != nil {
		return err
	}
	// A mirror collision (possible when earlier drops desynced the
	// poses) is absorbed: Sync will reconcile.
	_ = t.forwardCmd(func(r *Robot) error { return r.Forward() })
	return nil
}

// TurnLeft turns the primary and forwards the command.
func (t *Twin) TurnLeft() {
	t.primary.TurnLeft()
	_ = t.forwardCmd(func(r *Robot) error { r.TurnLeft(); return nil })
}

// TurnRight turns the primary and forwards the command.
func (t *Twin) TurnRight() {
	t.primary.TurnRight()
	_ = t.forwardCmd(func(r *Robot) error { r.TurnRight(); return nil })
}

// InSync reports whether both robots agree on pose.
func (t *Twin) InSync() bool {
	return t.primary.Position() == t.mirror.Position() &&
		t.primary.Heading() == t.mirror.Heading()
}

// Sync drives the mirror to the primary's pose using reliable movement
// commands (the synchronization message exchange happens over the
// "wire", i.e. directly, because sync traffic is acknowledged).
func (t *Twin) Sync(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	target := t.primary.Position()
	if t.mirror.Position() != target {
		dist, err := t.mirror.Maze().Distances(target)
		if err != nil {
			return err
		}
		if dist[t.mirror.Position().Y][t.mirror.Position().X] < 0 {
			return fmt.Errorf("robot: mirror at %v cannot reach %v", t.mirror.Position(), target)
		}
		for t.mirror.Position() != target {
			if err := ctx.Err(); err != nil {
				return err
			}
			cur := t.mirror.Position()
			moved := false
			for d := maze.North; d <= maze.West; d++ {
				if !t.mirror.Maze().CanMove(cur, d) {
					continue
				}
				n := cur.Move(d)
				if dist[n.Y][n.X] == dist[cur.Y][cur.X]-1 {
					t.mirror.Face(d)
					if err := t.mirror.Forward(); err != nil {
						return err
					}
					moved = true
					break
				}
			}
			if !moved {
				return fmt.Errorf("robot: sync stuck at %v", cur)
			}
		}
	}
	t.mirror.Face(t.primary.Heading())
	return nil
}
