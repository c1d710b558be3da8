// Package swarm maintains the global state of a robot swarm on the grid:
// which cells are occupied, connectivity in the sense of the paper
// (horizontal/vertical adjacency), the smallest enclosing rectangle, and
// the outer contour and holes that tests use as oracles.
//
// A Swarm stores pure occupancy. Robot identities, run states and movement
// are handled by the FSYNC engine (internal/fsync); the decision rules live
// in internal/core.
package swarm

import (
	"fmt"
	"slices"

	"gridgather/internal/grid"
)

// Swarm is a set of occupied grid cells. Robots are point-shaped and
// indistinguishable, so occupancy is all there is; two robots never share a
// cell between rounds (collisions merge).
type Swarm struct {
	cells map[grid.Point]struct{}
}

// New returns a swarm occupying the given cells. Duplicate cells collapse.
func New(cells ...grid.Point) *Swarm {
	s := &Swarm{cells: make(map[grid.Point]struct{}, len(cells))}
	for _, c := range cells {
		s.cells[c] = struct{}{}
	}
	return s
}

// NewSized returns an empty swarm with capacity pre-sized for n cells, so
// hot paths that rebuild the swarm every round (the FSYNC engine's move
// phase) avoid incremental map growth.
func NewSized(n int) *Swarm {
	return &Swarm{cells: make(map[grid.Point]struct{}, n)}
}

// Clone returns a deep copy of the swarm.
func (s *Swarm) Clone() *Swarm {
	c := &Swarm{cells: make(map[grid.Point]struct{}, len(s.cells))}
	for p := range s.cells {
		c.cells[p] = struct{}{}
	}
	return c
}

// Add marks cell p occupied.
func (s *Swarm) Add(p grid.Point) { s.cells[p] = struct{}{} }

// Remove marks cell p free.
func (s *Swarm) Remove(p grid.Point) { delete(s.cells, p) }

// Has reports whether cell p is occupied.
func (s *Swarm) Has(p grid.Point) bool {
	_, ok := s.cells[p]
	return ok
}

// Len returns the number of robots.
func (s *Swarm) Len() int { return len(s.cells) }

// Cells returns all occupied cells in deterministic (Y, X) order.
func (s *Swarm) Cells() []grid.Point {
	out := make([]grid.Point, 0, len(s.cells))
	for p := range s.cells {
		out = append(out, p)
	}
	slices.SortFunc(out, grid.Point.Compare)
	return out
}

// Bounds returns the smallest enclosing rectangle of the swarm.
func (s *Swarm) Bounds() grid.Rect {
	r := grid.EmptyRect
	for p := range s.cells {
		r = r.Include(p)
	}
	return r
}

// Gathered reports whether the swarm has reached the paper's goal
// configuration: all robots within one 2×2 square. In the paper's model that
// situation "cannot be simplified anymore".
func (s *Swarm) Gathered() bool {
	return s.Len() > 0 && s.Bounds().FitsIn2x2()
}

// Degree returns the number of occupied 4-neighbors of p (its connectivity
// degree, between 0 and 4 for an occupied cell in a connected swarm).
func (s *Swarm) Degree(p grid.Point) int {
	d := 0
	for _, q := range grid.Neighbors4(p) {
		if s.Has(q) {
			d++
		}
	}
	return d
}

// Connected reports whether the swarm is connected with respect to
// horizontal/vertical adjacency — the paper's connectivity notion. The empty
// swarm is vacuously connected; a singleton is connected.
func (s *Swarm) Connected() bool {
	if len(s.cells) <= 1 {
		return true
	}
	var start grid.Point
	for p := range s.cells {
		start = p
		break
	}
	seen := make(map[grid.Point]struct{}, len(s.cells))
	seen[start] = struct{}{}
	stack := []grid.Point{start}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, q := range grid.Neighbors4(p) {
			if s.Has(q) {
				if _, ok := seen[q]; !ok {
					seen[q] = struct{}{}
					stack = append(stack, q)
				}
			}
		}
	}
	return len(seen) == len(s.cells)
}

// String renders the swarm as a multi-line ASCII map ('#' occupied,
// '.' free), top row first, for debugging.
func (s *Swarm) String() string {
	b := s.Bounds()
	if b.Empty() {
		return "(empty swarm)"
	}
	out := make([]byte, 0, (b.Width()+1)*b.Height())
	for y := b.MaxY; y >= b.MinY; y-- {
		for x := b.MinX; x <= b.MaxX; x++ {
			if s.Has(grid.Pt(x, y)) {
				out = append(out, '#')
			} else {
				out = append(out, '.')
			}
		}
		out = append(out, '\n')
	}
	return string(out)
}

// Equal reports whether two swarms occupy exactly the same cells.
func (s *Swarm) Equal(t *Swarm) bool {
	if s.Len() != t.Len() {
		return false
	}
	for p := range s.cells {
		if !t.Has(p) {
			return false
		}
	}
	return true
}

// Diameter returns the maximum L∞ distance between any two robots, a lower
// bound (up to constants) on the rounds any gathering strategy needs, since
// robots move one cell per round (Theorem 1's Ω(n) argument uses the initial
// diameter).
func (s *Swarm) Diameter() int {
	b := s.Bounds()
	if b.Empty() {
		return 0
	}
	return max(b.Width(), b.Height()) - 1
}

// Validate panics unless the swarm is non-empty and connected. It is a
// convenience for constructing test scenarios.
func (s *Swarm) Validate() {
	if s.Len() == 0 {
		panic("swarm: empty")
	}
	if !s.Connected() {
		panic(fmt.Sprintf("swarm: not connected:\n%s", s))
	}
}
