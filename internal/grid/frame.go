package grid

// Frame is an element of the dihedral group D4: one of the eight
// rotations/reflections of the square lattice. The paper's robots have no
// compass, so every local rule must be checked "in a mirrored or rotated
// manner" (§3). The algorithm enumerates all eight frames and evaluates each
// pattern in each frame.
//
// A Frame maps pattern-local coordinates to world offsets:
//
//	world = X*ex + Y*ey
//
// where ex, ey are the images of the unit vectors under the symmetry.
type Frame struct {
	Ex, Ey Point
}

// Frames lists all eight elements of D4: four rotations followed by the four
// reflected rotations. The identity frame is Frames[0].
var Frames = [8]Frame{
	{Point{1, 0}, Point{0, 1}},   // identity
	{Point{0, 1}, Point{-1, 0}},  // rot 90° ccw
	{Point{-1, 0}, Point{0, -1}}, // rot 180°
	{Point{0, -1}, Point{1, 0}},  // rot 270°
	{Point{-1, 0}, Point{0, 1}},  // mirror x
	{Point{0, -1}, Point{-1, 0}}, // mirror x + rot 90
	{Point{1, 0}, Point{0, -1}},  // mirror x + rot 180 (mirror y)
	{Point{0, 1}, Point{1, 0}},   // mirror x + rot 270 (transpose)
}

// Apply maps a pattern-local offset to a world offset.
func (f Frame) Apply(p Point) Point {
	return Point{
		X: p.X*f.Ex.X + p.Y*f.Ey.X,
		Y: p.X*f.Ex.Y + p.Y*f.Ey.Y,
	}
}
