package grid

import "fmt"

// Rect is a closed axis-aligned rectangle of grid cells: all (x, y) with
// MinX ≤ x ≤ MaxX and MinY ≤ y ≤ MaxY.
type Rect struct {
	MinX, MinY, MaxX, MaxY int
}

// EmptyRect is the canonical empty rectangle (Min > Max).
var EmptyRect = Rect{MinX: 1, MinY: 1, MaxX: 0, MaxY: 0}

// Include returns the smallest rectangle containing r and p.
func (r Rect) Include(p Point) Rect {
	if r.Empty() {
		return Rect{MinX: p.X, MaxX: p.X, MinY: p.Y, MaxY: p.Y}
	}
	if p.X < r.MinX {
		r.MinX = p.X
	}
	if p.X > r.MaxX {
		r.MaxX = p.X
	}
	if p.Y < r.MinY {
		r.MinY = p.Y
	}
	if p.Y > r.MaxY {
		r.MaxY = p.Y
	}
	return r
}

// Empty reports whether the rectangle contains no cells.
func (r Rect) Empty() bool { return r.MinX > r.MaxX || r.MinY > r.MaxY }

// Contains reports whether p lies in r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Width returns the number of columns of r.
func (r Rect) Width() int {
	if r.Empty() {
		return 0
	}
	return r.MaxX - r.MinX + 1
}

// Height returns the number of rows of r.
func (r Rect) Height() int {
	if r.Empty() {
		return 0
	}
	return r.MaxY - r.MinY + 1
}

// FitsIn2x2 reports whether the rectangle fits in a 2×2 square: the paper's
// gathering target ("locate all robots within a 2×2-sized area").
func (r Rect) FitsIn2x2() bool {
	return !r.Empty() && r.Width() <= 2 && r.Height() <= 2
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	if r.Empty() {
		return "Rect(empty)"
	}
	return fmt.Sprintf("Rect[%d..%d]x[%d..%d]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}
