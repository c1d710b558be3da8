package asyncseq

import (
	"gridgather/internal/fsync"
	"gridgather/internal/grid"
	"gridgather/internal/view"
)

// Algorithm packages the sequential strategy as an engine-compatible robot
// program (fsync.Algorithm) that stays safe under EVERY scheduler — FSYNC,
// SSYNC subsets, ASYNC wavefronts. The sequential rules alone are only safe
// one robot at a time (see the package tests: executed simultaneously they
// can disconnect the swarm), so the robot program adds a local mutual
// exclusion rule:
//
//	a robot executes its candidate move only if no other candidate mover
//	occupies a cell within L∞ distance 3 at a lexicographically smaller
//	position.
//
// Candidacy of a nearby robot is re-derived inside the observer's own view
// (the rules are deterministic functions of occupancy, so a robot can
// evaluate them for any robot whose neighborhood it sees — the classic
// local-simulation technique). Two robots within L∞ ≤ 3 of each other each
// see the other's candidacy, and the lexicographic order breaks the tie the
// same way on both sides, so any two robots that actually move in the same
// round are at L∞ distance ≥ 4. Their vacated cells, 8-neighborhoods and
// landing cells are then disjoint, which reduces simultaneous execution to
// sequential execution of individually safe moves: connectivity is
// preserved under an arbitrary activation subset, which no schedule of the
// paper's merge operations can guarantee (those require all black robots of
// a configuration to hop together).
//
// The lexicographic comparison uses relative positions, which all robots
// order consistently — the same world-aligned bookkeeping concession the
// run-state directions make (see robot.Run).
//
// Under crash-stop faults the strategy stays live by consulting the view's
// failure detector: a crashed robot is occupied scenery. Its candidacy
// never suppresses anyone (it will never execute a move), it neither
// anchors a merge nor partners a corner cut (a crashed corner partner
// would let a live robot oscillate around it forever), and the reclaim
// rule lets live robots walk onto frozen neighbors — possibly stranding
// crashed robots behind them, which the engine resolves as graceful
// degradation. Without the detector a crashed convex corner would
// suppress its lexicographically larger neighbors forever.
type Algorithm struct{}

// interferenceRadius is the L∞ radius of the mutual exclusion zone. Two
// candidate movers at L∞ ≤ 3 suppress the lexicographically larger one;
// movers at L∞ ≥ 4 touch disjoint cell sets (each move reads and writes
// only cells within L∞ 2 of its robot).
const interferenceRadius = 3

// Radius implements fsync.Algorithm: candidates live within L∞ 3 (L1 ≤ 6)
// and their candidacy checks read their 8-neighborhood and diagonal landing
// cells (L∞ 1 further, L1 ≤ 8).
func (Algorithm) Radius() int { return 8 }

// RoundPeriod implements fsync.Periodic: the strategy never reads the
// round number — its decisions are pure functions of the view's cell
// contents — so any two activations with identical views decide
// identically (period 1), unlocking the engine's quiescence fast path.
func (Algorithm) RoundPeriod() int { return 1 }

// candidate returns the move the sequential strategy proposes for the robot
// at relative position base (grid.Zero = the observing robot itself), if
// any. Returned coordinates are relative to base.
func candidate(v *view.View, base grid.Point) (grid.Point, bool) {
	occ := func(q grid.Point) bool { return v.Occ(q) }
	crs := func(q grid.Point) bool { return v.CrashedAt(q) }
	if t, ok := deletable(occ, crs, base); ok {
		return t.Sub(base), true
	}
	if q, ok := cuttable(occ, crs, base); ok {
		return q.Sub(base), true
	}
	if q, ok := reclaimable(occ, crs, base); ok {
		return q.Sub(base), true
	}
	return grid.Point{}, false
}

// Compute implements fsync.Algorithm. It is stateless: it only reads the
// view.
func (Algorithm) Compute(v *view.View) fsync.Action {
	move, ok := candidate(v, grid.Zero)
	if !ok {
		return fsync.Stay
	}
	// Local mutual exclusion: scan the interference zone for a candidate
	// mover at a lexicographically smaller position. Only smaller positions
	// can suppress, so only they need checking. Crashed robots never move,
	// so their candidacy is void — deferring to one would deadlock the
	// observer forever (the view's failure detector is what makes the
	// strategy live under crash faults).
	for dy := -interferenceRadius; dy <= interferenceRadius; dy++ {
		for dx := -interferenceRadius; dx <= interferenceRadius; dx++ {
			q := grid.Pt(dx, dy)
			if q == grid.Zero || !q.Less(grid.Zero) || !v.Occ(q) || v.CrashedAt(q) {
				continue
			}
			if _, ok := candidate(v, q); ok {
				return fsync.Stay
			}
		}
	}
	return fsync.MoveTo(move)
}
