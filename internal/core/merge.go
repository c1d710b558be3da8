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
//
// The robot is black for hop direction d when every Fig. 2 test holds.
// Each test is a pure conjunction of occupancy reads, so the order of the
// reads cannot change a verdict; only the number of reads depends on it.
// The rule therefore reads the origin's 3×3 block once and runs every
// direction's m = 0 tests from it before any run scan: the origin's own
// far-side cell (exposure), and, when both of its run neighbours are
// occupied so that the origin is an interior black robot, its own landing
// cell. A robot inside the swarm is rejected after that one read.
//
// The straight run through the origin lies on the axis perpendicular to
// d, so d and −d share it. "Run too long" means the run's extents neg and
// pos on the two sides of the origin sum to MergeMax or more, which does
// not depend on which side is which, so each axis is scanned at most once
// per call: a one-cell-thick edge, whose robot survives the m = 0 tests
// in both directions across the edge, pays one pair of scans, not two.
// The scans and the segment tests go through View.Run and View.AnyIn,
// which a dense view answers a word at a time.
func MergeMove(v *view.View, p Params) (grid.Point, bool) {
	b := v.Block3()
	if b&allAxes == allAxes {
		return grid.Zero, false // inside the swarm: no direction is exposed
	}
	// run[k] is the length of the straight run of robots beside the
	// origin along grid.Axis4[k]; an axis's two entries are valid once
	// scanned[k&1] is set, and exact unless long[k&1].
	var run [4]int
	var scanned, long [2]bool
	var dirs [4]grid.Point
	n := 0
	for k, d := range grid.Axis4 {
		// −d is grid.Axis4[(k+2)&3]; the line axis of the black
		// subboundary, d.PerpCW(), is grid.Axis4[(k+3)&3].
		if b&axisBit[(k+2)&3] != 0 {
			continue // the far-side cell −d is occupied: not exposed
		}
		if b&axisBit[k] != 0 && b&axisBit[(k+1)&3] != 0 && b&axisBit[(k+3)&3] != 0 {
			continue // an interior black robot whose landing cell d is occupied
		}
		axis := d.PerpCW()

		// Extent of the straight run of robots through the origin along
		// ±axis. A run of MergeMax or more robots is too long to verify
		// within the radius; below that, maximality holds because each Run
		// stopped at a free cell, so the cells extending the run at both
		// ends are free.
		if c := k & 1; !scanned[c] {
			scanned[c] = true
			i, j := (k+1)&3, (k+3)&3
			run[i] = runBeside(v, b, i, p.MergeMax)
			long[c] = run[i] >= p.MergeMax
			if !long[c] {
				rest := p.MergeMax - run[i]
				run[j] = runBeside(v, b, j, rest)
				long[c] = run[j] >= rest
			}
		}
		if long[k&1] {
			continue
		}
		neg, pos := run[(k+1)&3], run[(k+3)&3]

		// Far side (outside) must be fully exposed, and the interior
		// landing cells must be free.
		if v.AnyIn(axis.Scale(-neg).Sub(d), axis, neg+pos+1) ||
			v.AnyIn(axis.Scale(-neg+1).Add(d), axis, neg+pos-1) {
			continue
		}
		// At least one end landing cell must hold a grey anchor.
		if v.Occ(axis.Scale(-neg).Add(d)) || v.Occ(axis.Scale(pos).Add(d)) {
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

// axisBit[k] is the grid.Block3 bit of the origin's neighbour along
// grid.Axis4[k].
var axisBit = [4]grid.Block3{
	grid.Block3Bit(grid.Axis4[0]), grid.Block3Bit(grid.Axis4[1]),
	grid.Block3Bit(grid.Axis4[2]), grid.Block3Bit(grid.Axis4[3]),
}

// allAxes holds the bits of all four axis neighbours.
var allAxes = axisBit[0] | axisBit[1] | axisBit[2] | axisBit[3]

// runBeside returns the length of the straight run of robots beside the
// origin along grid.Axis4[k], capped at max: 0 without a scan when the
// block shows the first cell free.
func runBeside(v *view.View, b grid.Block3, k, max int) int {
	if b&axisBit[k] == 0 {
		return 0
	}
	return v.Run(grid.Axis4[k], max)
}
