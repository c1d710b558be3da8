package swarm

import (
	"testing"

	"gridgather/internal/grid"
)

func TestOuterContourSingleton(t *testing.T) {
	s := New(grid.Pt(3, 3))
	c := s.OuterContour()
	if len(c) != 1 || c[0] != grid.Pt(3, 3) {
		t.Errorf("contour = %v", c)
	}
}

func TestOuterContourSquare(t *testing.T) {
	s := solidSquare(3)
	c := s.OuterContour()
	// The 3x3 square's contour is its 8 boundary cells, each exactly once.
	if len(c) != 8 {
		t.Fatalf("contour length = %d, want 8: %v", len(c), c)
	}
	seen := map[grid.Point]bool{}
	for _, p := range c {
		if !s.Has(p) {
			t.Errorf("contour visits free cell %v", p)
		}
		if s.Degree(p) == 4 {
			t.Errorf("contour visits interior cell %v", p)
		}
		seen[p] = true
	}
	if len(seen) != 8 {
		t.Errorf("distinct contour cells = %d", len(seen))
	}
}

func TestOuterContourStepsAreKingMoves(t *testing.T) {
	shapes := []*Swarm{
		line(7),
		solidSquare(4),
		hollowSquare(6),
		FromASCII("##.\n.##\n..#\n"),
		FromASCII("#....\n#....\n#####\n....#\n"),
	}
	for i, s := range shapes {
		c := s.OuterContour()
		for j := range c {
			d := c[(j+1)%len(c)].Sub(c[j])
			if d.Linf() != 1 {
				t.Errorf("shape %d: contour step %v -> %v is not a king move", i, c[j], c[(j+1)%len(c)])
			}
		}
	}
}

func TestOuterContourLineVisitsTwice(t *testing.T) {
	// A 1-thick line's interior robots are visited twice (once per side) —
	// the "vector chain may overlap itself" case noted in the paper.
	s := line(5)
	c := s.OuterContour()
	if len(c) != 8 {
		t.Errorf("contour of a 1x5 line should have 8 entries (2·5-2), got %d: %v", len(c), c)
	}
	count := map[grid.Point]int{}
	for _, p := range c {
		count[p]++
	}
	if count[grid.Pt(2, 0)] != 2 {
		t.Errorf("middle robot visited %d times, want 2", count[grid.Pt(2, 0)])
	}
	if count[grid.Pt(0, 0)] != 1 || count[grid.Pt(4, 0)] != 1 {
		t.Error("line endpoints should be visited once")
	}
}

func TestOuterContourIgnoresHole(t *testing.T) {
	s := solidSquare(5)
	s.Remove(grid.Pt(2, 2))
	c := s.OuterContour()
	for _, p := range c {
		if p == grid.Pt(2, 2) {
			t.Fatal("contour visits the hole")
		}
		// Outer contour must not include the hole-only boundary robots.
		if p.X > 0 && p.X < 4 && p.Y > 0 && p.Y < 4 {
			t.Errorf("outer contour visits inner robot %v", p)
		}
	}
	if len(c) != 16 {
		t.Errorf("contour length = %d, want 16", len(c))
	}
}

func TestContourLength(t *testing.T) {
	if got := len(solidSquare(4).OuterContour()); got != 12 {
		t.Errorf("4x4 contour length = %d, want 12", got)
	}
}
