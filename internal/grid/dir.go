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

// Block3 is the occupancy of the 3×3 block of cells around a centre cell:
// bit 3·(y+1) + (x+1) holds the cell at offset (x, y), x, y ∈ {−1, 0, 1}.
// It lets a rule that tests several of a robot's eight neighbours pay for
// one read; Block3Bit gives a cell's bit.
type Block3 uint16

// Block3Bit returns the bit of the cell at offset rel (|rel.X|, |rel.Y| ≤ 1).
func Block3Bit(rel Point) Block3 { return 1 << uint(3*rel.Y+rel.X+4) }
