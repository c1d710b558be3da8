package swarm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gridgather/internal/grid"
)

// randomSet builds an arbitrary (not necessarily connected) cell set from
// the quick-generated seed.
func randomSet(seed int64, n int) *Swarm {
	rng := rand.New(rand.NewSource(seed))
	s := New()
	for i := 0; i < n; i++ {
		s.Add(grid.Pt(rng.Intn(12)-6, rng.Intn(12)-6))
	}
	return s
}

// randomConnectedSet grows a connected set.
func randomConnectedSet(seed int64, n int) *Swarm {
	rng := rand.New(rand.NewSource(seed))
	s := New(grid.Pt(0, 0))
	cells := []grid.Point{grid.Pt(0, 0)}
	for s.Len() < n {
		base := cells[rng.Intn(len(cells))]
		q := base.Add(grid.Axis4[rng.Intn(4)])
		if !s.Has(q) {
			s.Add(q)
			cells = append(cells, q)
		}
	}
	return s
}

// TestPropertyContour: for connected swarms, the outer contour visits only
// boundary robots, its steps are king moves, and its vector chain closes.
func TestPropertyContour(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		n := 2 + int(szRaw)%60
		s := randomConnectedSet(seed, n)
		contour := s.OuterContour()
		if len(contour) == 0 {
			return false
		}
		sum := grid.Pt(0, 0)
		for i, p := range contour {
			if !s.Has(p) || s.Degree(p) == 4 {
				return false
			}
			q := contour[(i+1)%len(contour)]
			d := q.Sub(p)
			if d.Linf() > 1 {
				return false
			}
			sum = sum.Add(d)
		}
		return sum == grid.Pt(0, 0)
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(22))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyContourCoversOuterBoundary: a robot is on the outer contour
// exactly when one of its free 4-neighbors lies outside every hole.
func TestPropertyContourCoversOuterBoundary(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		n := 2 + int(szRaw)%60
		s := randomConnectedSet(seed, n)
		onContour := map[grid.Point]bool{}
		for _, p := range s.OuterContour() {
			onContour[p] = true
		}
		inHole := map[grid.Point]bool{}
		for _, hole := range s.Holes() {
			for _, c := range hole {
				inHole[c] = true
			}
		}
		for _, p := range s.Cells() {
			outer := false
			for _, q := range grid.Neighbors4(p) {
				if !s.Has(q) && !inHole[q] {
					outer = true
				}
			}
			if outer != onContour[p] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyCloneEqual: cloning is an involution-free deep copy.
func TestPropertyCloneEqual(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		s := randomSet(seed, 1+int(szRaw)%30)
		c := s.Clone()
		if !c.Equal(s) || !s.Equal(c) {
			return false
		}
		// Mutating the clone must not affect the original.
		cells := c.Cells()
		c.Remove(cells[0])
		return s.Has(cells[0])
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(24))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyHolesDisjointFromExterior: hole cells are free, enclosed,
// and disjoint from robots.
func TestPropertyHolesDisjointFromExterior(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		n := 4 + int(szRaw)%80
		s := randomConnectedSet(seed, n)
		b := s.Bounds()
		for _, hole := range s.Holes() {
			for _, c := range hole {
				if s.Has(c) || !b.Contains(c) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(25))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
