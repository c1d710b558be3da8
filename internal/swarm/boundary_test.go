package swarm

import (
	"testing"

	"gridgather/internal/grid"
)

// hollowSquare builds a w×w square ring of robots with a (w-2)×(w-2) hole.
func hollowSquare(w int) *Swarm {
	s := New()
	for x := 0; x < w; x++ {
		for y := 0; y < w; y++ {
			if x == 0 || y == 0 || x == w-1 || y == w-1 {
				s.Add(grid.Pt(x, y))
			}
		}
	}
	return s
}

func solidSquare(w int) *Swarm {
	s := New()
	for x := 0; x < w; x++ {
		for y := 0; y < w; y++ {
			s.Add(grid.Pt(x, y))
		}
	}
	return s
}

// TestFigure1_Boundaries reproduces the boundaries of Figure 1: a swarm
// with a hole has one outer boundary, traced by OuterContour, and an inner
// boundary around the hole. Robots adjacent only to the hole are "hatched"
// (inner), robots touching the exterior are "black" (outer).
func TestFigure1_Boundaries(t *testing.T) {
	// 5x5 solid square with the center cell removed.
	s := solidSquare(5)
	s.Remove(grid.Pt(2, 2))
	onContour := map[grid.Point]bool{}
	for _, p := range s.OuterContour() {
		onContour[p] = true
	}
	holes := s.Holes()
	if len(holes) != 1 || len(holes[0]) != 1 || holes[0][0] != grid.Pt(2, 2) {
		t.Fatalf("holes = %v, want the center cell", holes)
	}

	if !onContour[grid.Pt(0, 0)] {
		t.Error("corner is not on the outer boundary")
	}
	// (2,1) touches the hole (2,2) but not the exterior: inner only.
	if onContour[grid.Pt(2, 1)] || s.Degree(grid.Pt(2, 1)) != 3 {
		t.Errorf("hole-adjacent robot (2,1): on contour %v, degree %d", onContour[grid.Pt(2, 1)], s.Degree(grid.Pt(2, 1)))
	}
	// (1,1) has all four neighbors occupied: interior.
	if onContour[grid.Pt(1, 1)] || s.Degree(grid.Pt(1, 1)) != 4 {
		t.Errorf("(1,1): on contour %v, degree %d", onContour[grid.Pt(1, 1)], s.Degree(grid.Pt(1, 1)))
	}
}

func TestHoles(t *testing.T) {
	if holes := solidSquare(4).Holes(); len(holes) != 0 {
		t.Errorf("solid square has %d holes", len(holes))
	}
	s := hollowSquare(6)
	holes := s.Holes()
	if len(holes) != 1 {
		t.Fatalf("holes = %d", len(holes))
	}
	if len(holes[0]) != 16 {
		t.Errorf("hole size = %d, want 16", len(holes[0]))
	}
	// Two separate holes.
	s2 := FromASCII(`
#####
#.#.#
#####
`)
	if len(s2.Holes()) != 2 {
		t.Errorf("want 2 holes, got %d", len(s2.Holes()))
	}
}
