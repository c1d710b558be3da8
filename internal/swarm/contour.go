package swarm

import "gridgather/internal/grid"

// OuterContour traces the outer boundary of the swarm as a closed cyclic
// sequence of robot cells. Tracing follows the "cracks" (cell edges) between
// occupied and free cells of the unbounded face, keeping occupied cells on
// the right-hand side, which terminates provably for any non-empty swarm.
// Consecutive contour cells are king-move adjacent.
//
// Robots on width-1 protrusions appear multiple times — the paper notes "the
// constructed vector chain may overlap itself at places where the diameter
// of the swarm's boundary amounts only 1, but cannot contain any crossings".
//
// The sequence does not repeat the starting cell at the end. For a singleton
// swarm the contour is that single cell.
func (s *Swarm) OuterContour() []grid.Point {
	if s.Len() == 0 {
		return nil
	}
	start := s.startCell()
	if s.Len() == 1 {
		return []grid.Point{start}
	}

	// Vertices are integer lattice corners; cell (x, y) spans the unit
	// square [x, x+1] × [y, y+1]. We start on the left edge of the
	// leftmost-topmost cell heading north, with the cell on our right.
	startV := start
	startD := grid.North

	var cells []grid.Point
	v, d := startV, startD
	maxSteps := 16*s.Len() + 16
	for steps := 0; ; steps++ {
		if steps > maxSteps {
			panic("swarm: contour tracing did not terminate")
		}
		c := s.edgeRightCell(v, d)
		if len(cells) == 0 || cells[len(cells)-1] != c {
			cells = append(cells, c)
		}
		v = v.Add(d)
		// Choose the next heading: prefer turning left, then straight, then
		// right, then reversing. Left-first resolves diagonal pinch points
		// without crossing the crack.
		next := grid.Zero
		for _, e := range [4]grid.Point{d.PerpCCW(), d, d.PerpCW(), d.Neg()} {
			if s.edgeValid(v, e) {
				next = e
				break
			}
		}
		if next == grid.Zero {
			panic("swarm: contour tracing stuck")
		}
		d = next
		if v == startV && d == startD {
			break
		}
	}
	// Drop a duplicated wrap-around cell.
	if len(cells) > 1 && cells[len(cells)-1] == cells[0] {
		cells = cells[:len(cells)-1]
	}
	return cells
}

// edgeRightCell returns the cell on the right-hand side of the directed edge
// from vertex v toward v+d (y-up orientation).
func (s *Swarm) edgeRightCell(v, d grid.Point) grid.Point {
	switch d {
	case grid.North:
		return grid.Pt(v.X, v.Y)
	case grid.South:
		return grid.Pt(v.X-1, v.Y-1)
	case grid.East:
		return grid.Pt(v.X, v.Y-1)
	case grid.West:
		return grid.Pt(v.X-1, v.Y)
	}
	panic("swarm: bad edge direction")
}

// edgeLeftCell returns the cell on the left-hand side of the directed edge.
func (s *Swarm) edgeLeftCell(v, d grid.Point) grid.Point {
	switch d {
	case grid.North:
		return grid.Pt(v.X-1, v.Y)
	case grid.South:
		return grid.Pt(v.X, v.Y-1)
	case grid.East:
		return grid.Pt(v.X, v.Y)
	case grid.West:
		return grid.Pt(v.X-1, v.Y-1)
	}
	panic("swarm: bad edge direction")
}

// edgeValid reports whether the directed edge from v keeps an occupied cell
// on the right and a free cell on the left — i.e. it is a boundary crack
// traversed in the canonical orientation.
func (s *Swarm) edgeValid(v, d grid.Point) bool {
	return s.Has(s.edgeRightCell(v, d)) && !s.Has(s.edgeLeftCell(v, d))
}

// startCell returns the topmost of the leftmost occupied cells. Its west
// neighbor is guaranteed free, so its left edge lies on the outer boundary.
func (s *Swarm) startCell() grid.Point {
	var best grid.Point
	first := true
	for p := range s.cells {
		if first {
			best, first = p, false
			continue
		}
		if p.X < best.X || (p.X == best.X && p.Y > best.Y) {
			best = p
		}
	}
	return best
}
