// Package grid provides the integer-lattice geometry substrate used by the
// gathering algorithm: points, distances, neighborhoods, the dihedral
// symmetry group of the square, and axis-aligned rectangles.
//
// The paper's robots live on Z², are connected through horizontal and
// vertical adjacency, and may move to any of their eight neighboring cells.
// All of those notions are defined here.
package grid

import (
	"cmp"
	"fmt"
)

// Point is a cell of the two-dimensional grid Z².
type Point struct {
	X, Y int
}

// MaxCoord bounds the cells a simulation accepts: |X| and |Y| at most
// 2^62. Robots look and move a bounded distance past their own cell, and
// the bound keeps every such read and move clear of the int64 wrap.
const MaxCoord = 1 << 62

// InRange reports whether |X| and |Y| are at most MaxCoord.
func (p Point) InRange() bool {
	return p.X >= -MaxCoord && p.X <= MaxCoord && p.Y >= -MaxCoord && p.Y <= MaxCoord
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y int) Point { return Point{x, y} }

// Add returns p + q componentwise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q componentwise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Neg returns -p.
func (p Point) Neg() Point { return Point{-p.X, -p.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k int) Point { return Point{p.X * k, p.Y * k} }

// L1 returns the Manhattan (L1) norm of p. The paper measures the viewing
// radius in L1 distance.
func (p Point) L1() int { return abs(p.X) + abs(p.Y) }

// Linf returns the Chebyshev (L∞) norm of p. One robot movement step changes
// the position by at most 1 in L∞ (horizontal, vertical or diagonal hop).
func (p Point) Linf() int { return max(abs(p.X), abs(p.Y)) }

// L1Dist returns the Manhattan distance between p and q.
func L1Dist(p, q Point) int { return p.Sub(q).L1() }

// IsUnit reports whether p is one of the four axis unit vectors.
func (p Point) IsUnit() bool { return p.L1() == 1 }

// IsDiagonalUnit reports whether p is one of the four diagonal unit vectors.
func (p Point) IsDiagonalUnit() bool { return abs(p.X) == 1 && abs(p.Y) == 1 }

// PerpCW returns p rotated 90° clockwise (in standard orientation: x right,
// y up, clockwise means (0,1) -> (1,0)).
func (p Point) PerpCW() Point { return Point{p.Y, -p.X} }

// PerpCCW returns p rotated 90° counterclockwise.
func (p Point) PerpCCW() Point { return Point{-p.Y, p.X} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Less orders points lexicographically by (Y, X). It gives the deterministic
// tie-breaking order used by the simulator when it must pick a survivor among
// indistinguishable robots.
func (p Point) Less(q Point) bool {
	if p.Y != q.Y {
		return p.Y < q.Y
	}
	return p.X < q.X
}

// Compare orders points like Less, returning -1, 0 or +1, the form
// slices.SortFunc takes.
func (p Point) Compare(q Point) int {
	if c := cmp.Compare(p.Y, q.Y); c != 0 {
		return c
	}
	return cmp.Compare(p.X, q.X)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
