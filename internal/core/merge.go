package core

import (
	"gridgather/internal/grid"
	"gridgather/internal/view"
)

// This file implements the merge operations of §3.1 (Fig. 2) and their
// overlap handling (Fig. 3).
//
// A merge configuration of length k, oriented so the hop direction is
// "down" (d), consists of k black robots forming a maximal straight
// subboundary perpendicular to d such that
//
//   - every cell on the far side (-d) of a black robot is empty (the
//     subboundary is exposed),
//   - the two cells extending the black line at its ends are empty
//     (maximality — the paper's white cells beside the line),
//   - the landing cells under the interior black robots are empty (white
//     cells; this is what rules out the swap livelock of Fig. 3a: robots
//     never hop through an occupied row),
//   - at least one of the two landing cells under the end robots is
//     occupied (a grey anchor robot that does not move; "by requiring at
//     least one grey cell ... at least one robot from a grey cell will be
//     located at the same cell as a robot from a formerly black cell and
//     hence one robot is merged").
//
// Every black robot verifies the whole configuration inside its own viewing
// range and hops one cell toward d; grey robots stay. k is bounded by
// MergeMax ≤ Radius-1 so the farthest verified cell is within the radius.
//
// Overlaps (Fig. 3): a robot that is black in two configurations with
// perpendicular hop directions performs the diagonal hop of Fig. 3b. Black
// robots of opposing configurations never interleave because interior
// landing cells must be free, and simultaneous hops that land on a shared
// cell merge, exactly as in the figure ("afterwards, r, a, b occupy the
// same grid cell and a, b are removed").

// MergeMove decides whether the robot at the view's origin participates in
// a merge operation this round, and returns its hop. The second return is
// false if the robot is not a black robot of any configuration.
func MergeMove(v *view.View, p Params) (grid.Point, bool) {
	var dirs [4]grid.Point
	n := 0
	for _, d := range grid.Axis4 {
		if blackIn(v, d, p) {
			dirs[n] = d
			n++
		}
	}
	switch n {
	case 1:
		return dirs[0], true
	case 2:
		if sum := dirs[0].Add(dirs[1]); sum != grid.Zero {
			// Perpendicular overlap: diagonal hop (Fig. 3b).
			return sum, true
		}
	}
	// Zero matches, two opposing matches, or more: no safe single hop.
	return grid.Zero, false
}

// blackIn reports whether the origin robot is a black robot of a merge
// configuration whose hop direction is d.
//
// The verdict is a pure conjunction of occupancy tests, so the order of the
// reads cannot change it; only the number of reads depends on the order.
// The m = 0 cases are therefore tested before any run scan: the origin's
// own far-side cell (exposure), and, when both of its run neighbours are
// occupied so that the origin is an interior black robot, its own landing
// cell. A robot inside the swarm is rejected after one read per direction,
// one in the middle of a solid edge after at most four, instead of after
// scanning its run up to MergeMax cells each way. The run scans and the
// segment tests go through View.Run and View.AnyIn, which a dense view
// answers a row word at a time.
func blackIn(v *view.View, d grid.Point, p Params) bool {
	if v.Occ(d.Neg()) {
		return false
	}
	axis := d.PerpCW() // the line axis of the black subboundary
	if v.Occ(d) && v.Occ(axis) && v.Occ(axis.Neg()) {
		return false
	}

	// Extent of the straight run of robots through the origin along ±axis.
	// A run of MergeMax or more robots is too long to verify within the
	// radius; below that, maximality holds because each Run stopped at a
	// free cell, so the cells extending the run at both ends are free.
	neg := v.Run(axis.Neg(), p.MergeMax)
	if neg >= p.MergeMax {
		return false
	}
	pos := v.Run(axis, p.MergeMax-neg)
	if pos >= p.MergeMax-neg {
		return false
	}

	// Far side (outside) must be fully exposed, and the interior landing
	// cells must be free.
	if v.AnyIn(axis.Scale(-neg).Sub(d), axis, neg+pos+1) ||
		v.AnyIn(axis.Scale(-neg+1).Add(d), axis, neg+pos-1) {
		return false
	}
	// At least one end landing cell must hold a grey anchor.
	landA := axis.Scale(-neg).Add(d)
	landB := axis.Scale(pos).Add(d)
	return v.Occ(landA) || v.Occ(landB)
}
