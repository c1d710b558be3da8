package grid

// Directions of the grid. The four axis directions define connectivity
// (horizontal/vertical neighbors); the eight king-move directions define the
// cells a robot may hop to in one round.
var (
	North = Point{0, 1}
	South = Point{0, -1}
	East  = Point{1, 0}
	West  = Point{-1, 0}

	NorthEast = Point{1, 1}
	NorthWest = Point{-1, 1}
	SouthEast = Point{1, -1}
	SouthWest = Point{-1, -1}

	// Zero is the stay-in-place "direction".
	Zero = Point{0, 0}
)

// Axis4 lists the four axis-aligned unit vectors (the connectivity
// neighborhood) in a fixed deterministic order: E, N, W, S.
var Axis4 = [4]Point{East, North, West, South}

// Neighbors4 returns the four horizontally/vertically adjacent cells of p in
// the order of Axis4.
func Neighbors4(p Point) [4]Point {
	return [4]Point{p.Add(East), p.Add(North), p.Add(West), p.Add(South)}
}
