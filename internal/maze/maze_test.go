package maze

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestDirHelpers(t *testing.T) {
	if North.Opposite() != South || East.Opposite() != West {
		t.Error("Opposite wrong")
	}
	if North.Left() != West || North.Right() != East {
		t.Error("turns wrong")
	}
	if West.Right() != North || West.Left() != South {
		t.Error("west turns wrong")
	}
	if North.String() != "north" || Dir(9).String() == "" {
		t.Error("String wrong")
	}
	dxv, dyv := dx[South], dy[South]
	if dxv != 0 || dyv != 1 {
		t.Error("Delta wrong")
	}
}

func TestNewAllWalls(t *testing.T) {
	m, err := New(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < 2; y++ {
		for x := 0; x < 3; x++ {
			for d := North; d <= West; d++ {
				if !m.HasWall(Cell{x, y}, d) {
					t.Fatalf("cell %d,%d missing wall %s", x, y, d)
				}
			}
		}
	}
	if solvable(m) {
		t.Error("fully-walled maze reported solvable")
	}
}

func TestNewValidation(t *testing.T) {
	for _, dims := range [][2]int{{1, 5}, {5, 1}, {0, 0}, {2000, 2}} {
		if _, err := New(dims[0], dims[1]); err == nil {
			t.Errorf("New(%d,%d) accepted", dims[0], dims[1])
		}
	}
}

func TestSetWallSymmetry(t *testing.T) {
	m, _ := New(3, 3)
	if err := m.SetWall(Cell{1, 1}, East, false); err != nil {
		t.Fatal(err)
	}
	if m.HasWall(Cell{1, 1}, East) || m.HasWall(Cell{2, 1}, West) {
		t.Error("wall not opened on both sides")
	}
	if err := m.SetWall(Cell{1, 1}, East, true); err != nil {
		t.Fatal(err)
	}
	if !m.HasWall(Cell{2, 1}, West) {
		t.Error("wall not restored on both sides")
	}
	if err := m.SetWall(Cell{0, 0}, North, false); err == nil {
		t.Error("boundary wall opened")
	}
	if err := m.SetWall(Cell{9, 9}, North, true); err == nil {
		t.Error("out-of-grid cell accepted")
	}
}

func TestGeneratePerfectMazes(t *testing.T) {
	for _, alg := range []Algorithm{DFS, Prim} {
		for seed := int64(0); seed < 5; seed++ {
			m, err := Generate(9, 7, alg, seed)
			if err != nil {
				t.Fatalf("Generate(%v,%d): %v", alg, seed, err)
			}
			if !solvable(m) {
				t.Errorf("alg %v seed %d: unsolvable", alg, seed)
			}
			// A perfect maze over N cells has exactly N-1 open internal
			// wall pairs (it is a spanning tree).
			open := 0
			for y := 0; y < m.H; y++ {
				for x := 0; x < m.W; x++ {
					c := Cell{x, y}
					if m.CanMove(c, East) {
						open++
					}
					if m.CanMove(c, South) {
						open++
					}
				}
			}
			if open != m.W*m.H-1 {
				t.Errorf("alg %v seed %d: %d open walls, want %d", alg, seed, open, m.W*m.H-1)
			}
			// Every cell reachable.
			dist, _ := m.Distances(m.Start)
			for y := range dist {
				for x := range dist[y] {
					if dist[y][x] < 0 {
						t.Errorf("alg %v seed %d: cell %d,%d unreachable", alg, seed, x, y)
					}
				}
			}
		}
	}
}

func TestGenerateDivisionSolvable(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		m, err := Generate(11, 9, Division, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !solvable(m) {
			t.Errorf("division seed %d unsolvable", seed)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(15, 15, DFS, 42)
	b, _ := Generate(15, 15, DFS, 42)
	if a.String() != b.String() {
		t.Error("same seed produced different mazes")
	}
	c, _ := Generate(15, 15, DFS, 43)
	if a.String() == c.String() {
		t.Error("different seeds produced identical mazes")
	}
}

func TestGenerateUnknownAlgorithm(t *testing.T) {
	if _, err := Generate(5, 5, Algorithm(99), 0); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestDistancesAndShortestPath(t *testing.T) {
	m, _ := Generate(9, 9, DFS, 7)
	dist, err := m.Distances(m.Goal)
	if err != nil {
		t.Fatal(err)
	}
	path, err := m.ShortestPath()
	if err != nil {
		t.Fatal(err)
	}
	if path[0] != m.Start || path[len(path)-1] != m.Goal {
		t.Errorf("path endpoints: %v ... %v", path[0], path[len(path)-1])
	}
	if len(path)-1 != dist[m.Start.Y][m.Start.X] {
		t.Errorf("path length %d != distance %d", len(path)-1, dist[m.Start.Y][m.Start.X])
	}
	// Consecutive path cells must be adjacent and connected.
	for i := 1; i < len(path); i++ {
		prev, cur := path[i-1], path[i]
		found := false
		for d := North; d <= West; d++ {
			if prev.Move(d) == cur && m.CanMove(prev, d) {
				found = true
			}
		}
		if !found {
			t.Fatalf("path step %v -> %v not a legal move", prev, cur)
		}
	}
}

func TestShortestPathUnsolvable(t *testing.T) {
	m, _ := New(3, 3)
	if _, err := m.ShortestPath(); err == nil {
		t.Error("unsolvable maze produced a path")
	}
	if _, err := m.Distances(Cell{-1, 0}); err == nil {
		t.Error("out-of-grid distance source accepted")
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	orig, _ := Generate(7, 5, Prim, 3)
	orig.Start = Cell{2, 1}
	orig.Goal = Cell{6, 4}
	s := orig.String()
	parsed, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, s)
	}
	if parsed.String() != s {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", s, parsed.String())
	}
	if parsed.Start != orig.Start || parsed.Goal != orig.Goal {
		t.Errorf("markers lost: %v %v", parsed.Start, parsed.Goal)
	}
}

func TestParseRejectsBadInput(t *testing.T) {
	cases := []string{
		"",
		"+---+\n|   |\n+---+", // no S/G markers
		"junk\nlines\nhere",
	}
	for _, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Errorf("Parse(%q) accepted", c)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	prop := func(seedRaw uint16, algRaw uint8) bool {
		alg := Algorithm(algRaw % 3)
		m, err := Generate(6, 6, alg, int64(seedRaw))
		if err != nil {
			return false
		}
		p, err := Parse(m.String())
		if err != nil {
			return false
		}
		return p.String() == m.String()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestOpenDirections(t *testing.T) {
	m, _ := New(3, 3)
	_ = m.SetWall(Cell{1, 1}, North, false)
	_ = m.SetWall(Cell{1, 1}, East, false)
	dirs := m.OpenDirections(Cell{1, 1})
	if len(dirs) != 2 || dirs[0] != North || dirs[1] != East {
		t.Errorf("dirs = %v", dirs)
	}
	if got := m.OpenDirections(Cell{0, 0}); len(got) != 0 {
		t.Errorf("walled cell dirs = %v", got)
	}
}

func TestStringHasMarkers(t *testing.T) {
	m, _ := Generate(5, 5, DFS, 1)
	s := m.String()
	if !strings.Contains(s, " S ") || !strings.Contains(s, " G ") {
		t.Errorf("markers missing:\n%s", s)
	}
}

// solvable reports whether the goal is reachable from the start.
func solvable(m *Maze) bool {
	_, err := m.ShortestPath()
	return err == nil
}
