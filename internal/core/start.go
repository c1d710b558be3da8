package core

import (
	"gridgather/internal/fsync"
	"gridgather/internal/grid"
	"gridgather/internal/robot"
	"gridgather/internal/view"
)

// This file implements the run starting subboundaries Start-A and Start-B
// of Fig. 7. "We let runs start at endpoints of quasi lines": the starter
// is a quasi line endpoint robot — it has at least two aligned robots ahead
// (so the line's first three robots are aligned, Definition 1.1), no robot
// behind, a perpendicular support robot on the inside, and an exposed
// outside. Start-B is the configuration where the starter "is the endpoint
// of a horizontally and a vertically aligned subboundary at the same time.
// Here, we must start two runs, moving in both directions along the
// boundary."
//
// The starter performs the initial diagonal hop toward forward-inside (the
// paper's OP-C performs this hop for freshly started runs) and hands the
// run state(s) to its line neighbor(s). If the hop cell is occupied the
// start immediately produced a merge (Table 1.6) and no run state survives
// — which is progress in itself.
//
// The "white cell" emptiness requirements make hazardous symmetric starts
// (Fig. 5) impossible: a configuration in which two mirrored starters would
// disconnect the swarm does not match, because each candidate's outside row
// must be empty and its behind cell must be empty.

// startMatch is one matching Start-A orientation.
type startMatch struct {
	dir, inside grid.Point
}

// startMatches enumerates all orientations (the robot has no compass, so
// every rotation/reflection is checked) in which the origin robot is a
// Start-A starter.
func startMatches(v *view.View) []startMatch {
	var out []startMatch
	for _, f := range grid.Frames[:4] { // 4 rotations × 2 insides below
		dir := f.Apply(grid.Pt(1, 0))
		for _, inside := range [2]grid.Point{dir.PerpCW(), dir.PerpCCW()} {
			if startAMatch(v, grid.Zero, dir, inside) && safeSupport(v, dir, inside) {
				out = append(out, startMatch{dir: dir, inside: inside})
			}
		}
	}
	return out
}

// startAMatch checks the Start-A configuration for one orientation, with
// all cells offset by base (base = grid.Zero checks the origin robot):
//
//	outside   .  .  .  .        (must be empty: behind-out, own out,
//	line      .  S  #  #   →dir  and the outs of the two robots ahead)
//	inside       #  ?           (support robot under the starter)
//
// S is the starter; '#' are required robots; '.' required empty cells; '?'
// is unconstrained (the hop target — occupied means the start merges).
func startAMatch(v *view.View, base, dir, inside grid.Point) bool {
	out := inside.Neg()
	occ := func(rel grid.Point) bool { return v.Occ(base.Add(rel)) }
	// Three aligned robots including the starter (Definition 1.1: "at
	// least its first and last three robots are horizontally aligned").
	if !occ(dir) || !occ(dir.Scale(2)) {
		return false
	}
	// Endpoint: nothing behind the starter along the line.
	if occ(dir.Neg()) {
		return false
	}
	// Perpendicular support on the inside.
	if !occ(inside) {
		return false
	}
	// Exposed outside along the line start and behind the corner.
	if occ(out) || occ(dir.Add(out)) || occ(dir.Scale(2).Add(out)) || occ(dir.Neg().Add(out)) {
		return false
	}
	return true
}

// safeSupport rules out the Fig. 5 hazard: "if r and r' both start
// reshaping the subboundary, the connectivity might break." In the
// hazardous S/Z configuration the starter's support robot is itself a
// Start-A endpoint of the mirrored orientation, supported by the starter —
// if both hop simultaneously they vacate each other's anchor and the swarm
// splits. Both robots see the symmetric configuration, so both suppress
// their start ("we do not start any runs"). Progress is unharmed: Lemma 1
// finds a progress pair elsewhere on the boundary.
func safeSupport(v *view.View, dir, inside grid.Point) bool {
	return !startAMatch(v, inside, dir.Neg(), inside.Neg())
}

// startAction computes the action when the origin robot may start runs this
// round (Fig. 11 step 3). The boolean reports whether a start happened.
func (g *Gatherer) startAction(v *view.View) (fsync.Action, bool) {
	matches := startMatches(v)
	switch len(matches) {
	case 1:
		m := matches[0]
		return g.emitStart(v, []startMatch{m}), true
	case 2:
		a, b := matches[0], matches[1]
		// Start-B: the starter ends a horizontal and a vertical line whose
		// insides point at each other's lines, so both initial hops agree
		// on the same forward-inside diagonal.
		if a.dir.Add(a.inside) == b.dir.Add(b.inside) {
			return g.emitStart(v, matches), true
		}
	}
	return fsync.Action{}, false
}

// emitStart performs the initial diagonal hop and hands one run state per
// matching orientation to the respective line neighbor.
func (g *Gatherer) emitStart(v *view.View, matches []startMatch) fsync.Action {
	hop := matches[0].dir.Add(matches[0].inside)
	act := fsync.Action{Move: hop}
	if len(matches) == 1 {
		g.stats.StartsA++
	} else {
		g.stats.StartsB++
	}
	if v.Occ(hop) {
		// The start hop lands on an occupied cell: immediate merge
		// (Table 1.6); no run survives.
		g.stats.StopOntoOcc += len(matches)
		return act
	}
	for _, m := range matches {
		run := robot.Run{Dir: m.dir, Inside: m.inside, Phase: robot.PhaseRoll}
		act.AddTransfer(m.dir, run)
	}
	return act
}
