package robot

import (
	"context"
	"testing"

	"soc/internal/maze"
)

func twinPair(t *testing.T, dropRate float64) *Twin {
	t.Helper()
	m1, err := maze.Generate(9, 9, maze.DFS, 7)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := maze.Generate(9, 9, maze.DFS, 7)
	if err != nil {
		t.Fatal(err)
	}
	primary, err := New(m1)
	if err != nil {
		t.Fatal(err)
	}
	mirror, err := New(m2)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := NewTwin(primary, mirror, dropRate, 11)
	if err != nil {
		t.Fatal(err)
	}
	return tw
}

func TestTwinValidation(t *testing.T) {
	m, _ := maze.Generate(9, 9, maze.DFS, 1)
	r, _ := New(m)
	if _, err := NewTwin(nil, r, 0, 1); err == nil {
		t.Error("nil primary accepted")
	}
	if _, err := NewTwin(r, r, -0.5, 1); err == nil {
		t.Error("negative drop rate accepted")
	}
	if _, err := NewTwin(r, r, 1.0, 1); err == nil {
		t.Error("drop rate 1.0 accepted")
	}
	other, _ := maze.Generate(9, 9, maze.DFS, 2)
	r2, _ := New(other)
	if _, err := NewTwin(r, r2, 0, 1); err == nil {
		t.Error("mismatched mazes accepted")
	}
}

func TestTwinPerfectLinkStaysInSync(t *testing.T) {
	tw := twinPair(t, 0)
	prog, err := ParseProgram(wallFollowerProgram)
	if err != nil {
		t.Fatal(err)
	}
	// Drive the twin with the wall follower by adapting the twin to the
	// robot command surface manually.
	for i := 0; i < 500 && !tw.primary.AtGoal(); i++ {
		if tw.primary.RightDistance() > 0 {
			tw.TurnRight()
			if err := tw.Forward(); err != nil {
				t.Fatal(err)
			}
		} else if tw.primary.FrontDistance() > 0 {
			if err := tw.Forward(); err != nil {
				t.Fatal(err)
			}
		} else {
			tw.TurnLeft()
		}
		if !tw.InSync() {
			t.Fatalf("desynced at step %d with perfect link", i)
		}
	}
	if !tw.primary.AtGoal() || !tw.mirror.AtGoal() {
		t.Error("twin pair did not both reach the goal")
	}
	if tw.Dropped() != 0 {
		t.Errorf("perfect link dropped %d", tw.Dropped())
	}
	_ = prog
}

func TestTwinLossyLinkDivergesThenSyncs(t *testing.T) {
	tw := twinPair(t, 0.35)
	// Drive the primary far enough that some commands are lost.
	diverged := false
	for i := 0; i < 200; i++ {
		if tw.primary.FrontDistance() > 0 {
			_ = tw.Forward()
		} else {
			tw.TurnLeft()
		}
		if !tw.InSync() {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("lossy link never diverged (drop rate 0.35 over 200 commands)")
	}
	if tw.Dropped() == 0 || tw.Sent() == 0 {
		t.Fatalf("drop accounting: %d/%d", tw.Dropped(), tw.Sent())
	}
	if err := tw.Sync(context.Background()); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if !tw.InSync() {
		t.Errorf("still desynced after Sync: primary %v/%v, mirror %v/%v",
			tw.primary.Position(), tw.primary.Heading(),
			tw.mirror.Position(), tw.mirror.Heading())
	}
}

func TestTwinSyncNoOpWhenAligned(t *testing.T) {
	tw := twinPair(t, 0)
	before := tw.mirror.Steps()
	if err := tw.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if tw.mirror.Steps() != before {
		t.Error("sync moved an aligned mirror")
	}
}

func TestTwinSyncContextCancel(t *testing.T) {
	tw := twinPair(t, 0.9*0.99) // heavy loss
	for i := 0; i < 50; i++ {
		if tw.primary.FrontDistance() > 0 {
			_ = tw.Forward()
		} else {
			tw.TurnRight()
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if tw.InSync() {
		t.Skip("no divergence to sync")
	}
	if err := tw.Sync(ctx); err == nil {
		t.Error("cancelled sync succeeded")
	}
}

func TestTwinForwardCollisionPropagates(t *testing.T) {
	tw := twinPair(t, 0)
	// Face a wall and push: the primary reports the collision.
	for tw.primary.FrontDistance() > 0 {
		if err := tw.Forward(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Forward(); err == nil {
		t.Error("collision not reported")
	}
}
