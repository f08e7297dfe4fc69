// Package maze implements the maze world of the CSE101 robotics
// environment (Figure 1): grid mazes with per-cell walls, deterministic
// generation, ASCII serialization, and BFS analysis (distance fields,
// solvability, shortest paths). The robot simulator in soc/internal/robot
// runs on these mazes and the navigation algorithms in soc/internal/nav
// are evaluated over corpora of them.
package maze

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
)

// Dir is a cardinal direction.
type Dir int

// The four directions, clockwise from north.
const (
	North Dir = iota
	East
	South
	West
)

// String returns the direction name.
func (d Dir) String() string {
	switch d {
	case North:
		return "north"
	case East:
		return "east"
	case South:
		return "south"
	case West:
		return "west"
	}
	return fmt.Sprintf("Dir(%d)", int(d))
}

// Opposite returns the reverse direction.
func (d Dir) Opposite() Dir { return (d + 2) % 4 }

// Left returns the direction after a 90° left turn.
func (d Dir) Left() Dir { return (d + 3) % 4 }

// Right returns the direction after a 90° right turn.
func (d Dir) Right() Dir { return (d + 1) % 4 }

// DX and DY give the unit step of each direction (y grows south).
var (
	dx = [4]int{0, 1, 0, -1}
	dy = [4]int{-1, 0, 1, 0}
)

// Cell is a grid coordinate.
type Cell struct{ X, Y int }

// Move returns the neighboring cell in the direction.
func (c Cell) Move(d Dir) Cell { return Cell{c.X + dx[d], c.Y + dy[d]} }

// ErrMaze reports invalid maze parameters or documents.
var ErrMaze = errors.New("maze: invalid")

// Maze is a rectangular grid with walls between cells. The boundary is
// always walled.
type Maze struct {
	W, H  int
	Start Cell
	Goal  Cell
	// walls[y][x] is a bitmask of walls present on cell (x,y):
	// bit d set ⇒ wall on side d.
	walls [][]uint8
}

// New returns a w×h maze with all internal walls present, start at the
// top-left and goal at the bottom-right.
func New(w, h int) (*Maze, error) {
	if w < 2 || h < 2 || w > 1024 || h > 1024 {
		return nil, fmt.Errorf("%w: size %dx%d", ErrMaze, w, h)
	}
	m := &Maze{W: w, H: h, Start: Cell{0, 0}, Goal: Cell{w - 1, h - 1}}
	m.walls = make([][]uint8, h)
	for y := range m.walls {
		m.walls[y] = make([]uint8, w)
		for x := range m.walls[y] {
			m.walls[y][x] = 0b1111
		}
	}
	return m, nil
}

// In reports whether the cell lies inside the grid.
func (m *Maze) In(c Cell) bool { return c.X >= 0 && c.X < m.W && c.Y >= 0 && c.Y < m.H }

// HasWall reports whether the cell has a wall on side d. Out-of-grid cells
// are treated as fully walled.
func (m *Maze) HasWall(c Cell, d Dir) bool {
	if !m.In(c) {
		return true
	}
	return m.walls[c.Y][c.X]&(1<<uint(d)) != 0
}

// SetWall adds or removes the wall on side d of c, keeping the adjacent
// cell's matching wall consistent. Boundary walls cannot be removed.
func (m *Maze) SetWall(c Cell, d Dir, present bool) error {
	if !m.In(c) {
		return fmt.Errorf("%w: cell %v outside %dx%d", ErrMaze, c, m.W, m.H)
	}
	n := c.Move(d)
	if !m.In(n) && !present {
		return fmt.Errorf("%w: cannot open boundary wall at %v %s", ErrMaze, c, d)
	}
	set := func(cc Cell, dd Dir, on bool) {
		if !m.In(cc) {
			return
		}
		if on {
			m.walls[cc.Y][cc.X] |= 1 << uint(dd)
		} else {
			m.walls[cc.Y][cc.X] &^= 1 << uint(dd)
		}
	}
	set(c, d, present)
	set(n, d.Opposite(), present)
	return nil
}

// CanMove reports whether a step from c in direction d is open.
func (m *Maze) CanMove(c Cell, d Dir) bool {
	return m.In(c) && m.In(c.Move(d)) && !m.HasWall(c, d)
}

// Algorithm selects a generation algorithm.
type Algorithm int

const (
	// DFS is a recursive-backtracker: long winding corridors.
	DFS Algorithm = iota
	// Prim is randomized Prim's algorithm: short branchy passages.
	Prim
	// Division is recursive division: rooms split by walls with doors.
	Division
)

// Generate returns a random perfect maze of the given size using the
// algorithm, deterministic in seed.
func Generate(w, h int, alg Algorithm, seed int64) (*Maze, error) {
	m, err := New(w, h)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	switch alg {
	case DFS:
		m.generateDFS(rng)
	case Prim:
		m.generatePrim(rng)
	case Division:
		m.generateDivision(rng)
	default:
		return nil, fmt.Errorf("%w: unknown algorithm %d", ErrMaze, alg)
	}
	return m, nil
}

func (m *Maze) generateDFS(rng *rand.Rand) {
	visited := make([]bool, m.W*m.H)
	idx := func(c Cell) int { return c.Y*m.W + c.X }
	stack := []Cell{m.Start}
	visited[idx(m.Start)] = true
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		dirs := rng.Perm(4)
		moved := false
		for _, di := range dirs {
			d := Dir(di)
			n := c.Move(d)
			if m.In(n) && !visited[idx(n)] {
				_ = m.SetWall(c, d, false)
				visited[idx(n)] = true
				stack = append(stack, n)
				moved = true
				break
			}
		}
		if !moved {
			stack = stack[:len(stack)-1]
		}
	}
}

func (m *Maze) generatePrim(rng *rand.Rand) {
	visited := make([]bool, m.W*m.H)
	idx := func(c Cell) int { return c.Y*m.W + c.X }
	type edge struct {
		c Cell
		d Dir
	}
	var frontier []edge
	addEdges := func(c Cell) {
		for d := North; d <= West; d++ {
			if m.In(c.Move(d)) {
				frontier = append(frontier, edge{c, d})
			}
		}
	}
	visited[idx(m.Start)] = true
	addEdges(m.Start)
	for len(frontier) > 0 {
		i := rng.Intn(len(frontier))
		e := frontier[i]
		frontier[i] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		n := e.c.Move(e.d)
		if visited[idx(n)] {
			continue
		}
		_ = m.SetWall(e.c, e.d, false)
		visited[idx(n)] = true
		addEdges(n)
	}
}

func (m *Maze) generateDivision(rng *rand.Rand) {
	// Start from an empty room, then divide recursively.
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			c := Cell{x, y}
			for d := North; d <= West; d++ {
				if m.In(c.Move(d)) {
					_ = m.SetWall(c, d, false)
				}
			}
		}
	}
	var divide func(x0, y0, x1, y1 int)
	divide = func(x0, y0, x1, y1 int) {
		w, h := x1-x0, y1-y0
		if w < 2 && h < 2 {
			return
		}
		horizontal := h > w || (h == w && rng.Intn(2) == 0)
		if horizontal && h >= 2 {
			// Wall along row wy (between wy-1 and wy), door at dxp.
			wy := y0 + 1 + rng.Intn(h-1)
			door := x0 + rng.Intn(w)
			for x := x0; x < x1; x++ {
				if x != door {
					_ = m.SetWall(Cell{x, wy}, North, true)
				}
			}
			divide(x0, y0, x1, wy)
			divide(x0, wy, x1, y1)
		} else if w >= 2 {
			wx := x0 + 1 + rng.Intn(w-1)
			door := y0 + rng.Intn(h)
			for y := y0; y < y1; y++ {
				if y != door {
					_ = m.SetWall(Cell{wx, y}, West, true)
				}
			}
			divide(x0, y0, wx, y1)
			divide(wx, y0, x1, y1)
		}
	}
	divide(0, 0, m.W, m.H)
}

// Distances returns the BFS distance of every cell from the given cell;
// unreachable cells get -1.
func (m *Maze) Distances(from Cell) ([][]int, error) {
	if !m.In(from) {
		return nil, fmt.Errorf("%w: cell %v outside grid", ErrMaze, from)
	}
	dist := make([][]int, m.H)
	for y := range dist {
		dist[y] = make([]int, m.W)
		for x := range dist[y] {
			dist[y][x] = -1
		}
	}
	dist[from.Y][from.X] = 0
	queue := []Cell{from}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for d := North; d <= West; d++ {
			if !m.CanMove(c, d) {
				continue
			}
			n := c.Move(d)
			if dist[n.Y][n.X] == -1 {
				dist[n.Y][n.X] = dist[c.Y][c.X] + 1
				queue = append(queue, n)
			}
		}
	}
	return dist, nil
}

// ShortestPath returns a minimal start→goal cell sequence (inclusive), or
// an error when the maze is unsolvable.
func (m *Maze) ShortestPath() ([]Cell, error) {
	dist, err := m.Distances(m.Goal)
	if err != nil {
		return nil, err
	}
	if dist[m.Start.Y][m.Start.X] < 0 {
		return nil, fmt.Errorf("%w: unsolvable", ErrMaze)
	}
	path := []Cell{m.Start}
	c := m.Start
	for c != m.Goal {
		for d := North; d <= West; d++ {
			if !m.CanMove(c, d) {
				continue
			}
			n := c.Move(d)
			if dist[n.Y][n.X] == dist[c.Y][c.X]-1 {
				c = n
				break
			}
		}
		path = append(path, c)
	}
	return path, nil
}

// String renders the maze as ASCII art: '+', '-', '|' walls, 'S' start,
// 'G' goal.
func (m *Maze) String() string {
	var b strings.Builder
	for x := 0; x < m.W; x++ {
		b.WriteString("+")
		if m.HasWall(Cell{x, 0}, North) {
			b.WriteString("---")
		} else {
			b.WriteString("   ")
		}
	}
	b.WriteString("+\n")
	for y := 0; y < m.H; y++ {
		// Cell row.
		for x := 0; x < m.W; x++ {
			c := Cell{x, y}
			if m.HasWall(c, West) {
				b.WriteString("|")
			} else {
				b.WriteString(" ")
			}
			switch c {
			case m.Start:
				b.WriteString(" S ")
			case m.Goal:
				b.WriteString(" G ")
			default:
				b.WriteString("   ")
			}
		}
		if m.HasWall(Cell{m.W - 1, y}, East) {
			b.WriteString("|\n")
		} else {
			b.WriteString(" \n")
		}
		// Southern wall row.
		for x := 0; x < m.W; x++ {
			b.WriteString("+")
			if m.HasWall(Cell{x, y}, South) {
				b.WriteString("---")
			} else {
				b.WriteString("   ")
			}
		}
		b.WriteString("+\n")
	}
	return b.String()
}

// Parse reads the ASCII format produced by String.
func Parse(s string) (*Maze, error) {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) < 3 || len(lines)%2 == 0 {
		return nil, fmt.Errorf("%w: %d lines", ErrMaze, len(lines))
	}
	h := (len(lines) - 1) / 2
	w := (len(lines[0]) - 1) / 4
	m, err := New(w, h)
	if err != nil {
		return nil, err
	}
	var haveStart, haveGoal bool
	for y := 0; y < h; y++ {
		cellLine := lines[2*y+1]
		southLine := lines[2*y+2]
		if len(cellLine) < 4*w+1 || len(southLine) < 4*w+1 {
			return nil, fmt.Errorf("%w: short line at row %d", ErrMaze, y)
		}
		for x := 0; x < w; x++ {
			c := Cell{x, y}
			if cellLine[4*x] == ' ' {
				if err := m.SetWall(c, West, false); err != nil {
					return nil, err
				}
			}
			if southLine[4*x+1] == ' ' {
				if err := m.SetWall(c, South, false); err != nil {
					return nil, err
				}
			}
			switch cellLine[4*x+2] {
			case 'S':
				m.Start = c
				haveStart = true
			case 'G':
				m.Goal = c
				haveGoal = true
			}
		}
	}
	if !haveStart || !haveGoal {
		return nil, fmt.Errorf("%w: missing S or G marker", ErrMaze)
	}
	return m, nil
}

// OpenDirections lists the open directions from c.
func (m *Maze) OpenDirections(c Cell) []Dir {
	var out []Dir
	for d := North; d <= West; d++ {
		if m.CanMove(c, d) {
			out = append(out, d)
		}
	}
	return out
}
