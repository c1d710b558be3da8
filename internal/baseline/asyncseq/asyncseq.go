// Package asyncseq implements the paper's introductory remark: "if one
// would assume a fair scheduler in the ASYNC time model, which allows only
// one robot to be active at a time and finishes a round after every robot
// has been active at least once, a simple strategy could achieve the same
// O(n) rounds."
//
// The simple strategy: when a robot is activated it
//
//   - merges onto a 4-neighbor if it is locally deletable — its occupied
//     8-neighborhood remains connected (through 4-adjacency within the
//     ring) without it, the classic simple-point condition that preserves
//     global connectivity under sequential moves; or
//   - cuts its corner: a robot with exactly two perpendicular neighbors
//     and a free diagonal between them hops onto that diagonal, shortening
//     the boundary (always safe sequentially: the diagonal cell is
//     4-adjacent to both neighbors); or
//   - reclaims a crashed neighbor (crash-fault runs only): a robot whose
//     live ring cells all flank a crash-stopped 4-neighbor walks onto that
//     frozen robot, consuming it. Connectivity duty extends only to live
//     robots — crashed scenery may be stranded, which the engine turns
//     into graceful degradation rather than an abort.
//
// The north-east-most robot is always actionable, so every round makes
// progress and the strategy gathers in O(n) rounds. This baseline
// illustrates why the paper's FSYNC setting is the hard one: the identical
// rules executed simultaneously can disconnect the swarm (see the package
// tests), which is exactly what the run machinery of the paper prevents.
package asyncseq

import (
	"fmt"

	"gridgather/internal/grid"
	"gridgather/internal/swarm"
)

// Result of a sequential simulation.
type Result struct {
	Gathered      bool
	Rounds        int
	Activations   int
	Merges        int
	Cuts          int
	InitialRobots int
	FinalRobots   int
	Err           error
}

// ring8 is the cyclic order of the 8-neighborhood used by the simple-point
// test.
var ring8 = [8]grid.Point{
	grid.East, grid.NorthEast, grid.North, grid.NorthWest,
	grid.West, grid.SouthWest, grid.South, grid.SouthEast,
}

// deletable reports whether removing the robot at p keeps its live
// occupied neighborhood connected: the live ring cells must form one
// component under 4-adjacency within the ring, and p must have at least
// one live 4-neighbor to merge onto. occupied is the occupancy predicate —
// the global swarm for the sequential simulation, a radius-limited view
// for the engine-compatible Algorithm. crashed (nil = no crash faults)
// narrows the connectivity duty to live robots: crash-stopped robots are
// scenery the swarm may strand (the engine then degrades gracefully
// instead of aborting), so they neither anchor a merge nor count toward
// the ring components.
//
//gather:hotpath
func deletable(occupied, crashed func(grid.Point) bool, p grid.Point) (grid.Point, bool) {
	occ := [8]bool{}
	cnt := 0
	var target grid.Point
	hasAxis := false
	for i, d := range ring8 {
		q := p.Add(d)
		if occupied(q) && (crashed == nil || !crashed(q)) {
			occ[i] = true
			cnt++
			if d.IsUnit() && !hasAxis {
				target = q
				hasAxis = true
			}
		}
	}
	if cnt == 0 || !hasAxis {
		return grid.Point{}, false
	}
	// Count 4-connected components of the occupied ring cells. Within the
	// ring, cells at positions i and i+1 are 4-adjacent exactly when one of
	// them is an axis cell (even index) — corner cells are only diagonal to
	// each other.
	comps := 0
	for i := 0; i < 8; i++ {
		if !occ[i] {
			continue
		}
		prev := (i + 7) % 8
		linked := occ[prev] && (i%2 == 0 || prev%2 == 0)
		if !linked {
			comps++
		}
	}
	// Fully occupied ring: the loop above finds 8 linked cells and comps
	// stays 0; it is one component.
	if cnt == 8 {
		comps = 1
	}
	return target, comps == 1
}

// cuttable reports whether the robot at p is a convex corner that can hop
// onto the diagonal between its exactly-two perpendicular live neighbors.
// Crashed neighbors are ignored when counting axes (they are scenery, not
// corner partners — a crashed corner partner would let the robot oscillate
// around it forever). The landing cell may be free (the classic cut) or
// hold a crashed robot: the diagonal is 4-adjacent to both live partners
// either way, so live connectivity is preserved, and landing on a frozen
// robot consumes it — strict progress, which is what breaks a live ring
// locked around a crashed center.
//
//gather:hotpath
func cuttable(occupied, crashed func(grid.Point) bool, p grid.Point) (grid.Point, bool) {
	var axes [len(grid.Axis4)]grid.Point
	n := 0
	for _, d := range grid.Axis4 {
		if q := p.Add(d); occupied(q) && (crashed == nil || !crashed(q)) {
			axes[n] = d
			n++
		}
	}
	if n != 2 {
		return grid.Point{}, false
	}
	diag := axes[0].Add(axes[1])
	if diag == grid.Zero {
		return grid.Point{}, false // opposite neighbors: not a corner
	}
	q := p.Add(diag)
	if occupied(q) && (crashed == nil || !crashed(q)) {
		return grid.Point{}, false
	}
	return q, true
}

// reclaimable reports whether the robot at p may advance onto a crashed
// 4-neighbor, consuming it. The move relocates p onto the target cell, so
// it is only safe when every live cell of p's ring flanks the target (the
// two corners 4-adjacent to it): those stay connected through the robot's
// new position, and no other live cell depended on p. Crashed cells beyond
// the target carry no duty — stranding them is the graceful-degradation
// trade. This rule is what frees a live robot pinned between crashed
// neighbors: deletable refuses (no live axis to merge onto) and cuttable
// refuses (no two live axes), but walking onto the frozen robot both
// makes progress and reclaims the cell.
//
//gather:hotpath
func reclaimable(occupied, crashed func(grid.Point) bool, p grid.Point) (grid.Point, bool) {
	if crashed == nil {
		return grid.Point{}, false
	}
	for i, d := range ring8 {
		if i%2 != 0 {
			continue // axis directions sit at even ring positions
		}
		q := p.Add(d)
		if !occupied(q) || !crashed(q) {
			continue
		}
		ok := true
		for j, dd := range ring8 {
			qq := p.Add(dd)
			if !occupied(qq) || crashed(qq) {
				continue // only live cells carry a connectivity duty
			}
			if j != (i+1)%8 && j != (i+7)%8 {
				ok = false
				break
			}
		}
		if ok {
			return q, true
		}
	}
	return grid.Point{}, false
}

// Run executes the sequential strategy until gathering, activating robots
// in deterministic scan order (a fair round-robin scheduler).
func Run(s *swarm.Swarm, maxRounds int) Result {
	w := s.Clone()
	res := Result{InitialRobots: w.Len()}
	for !w.Gathered() {
		if res.Rounds >= maxRounds {
			res.Err = fmt.Errorf("asyncseq: round limit %d reached", maxRounds)
			break
		}
		progressed := false
		for _, p := range w.Cells() {
			if !w.Has(p) {
				continue // merged away earlier this round
			}
			res.Activations++
			if t, ok := deletable(w.Has, nil, p); ok {
				w.Remove(p)
				_ = t // the robot moves onto t and merges: cell already occupied
				res.Merges++
				progressed = true
				continue
			}
			if q, ok := cuttable(w.Has, nil, p); ok {
				w.Remove(p)
				w.Add(q)
				res.Cuts++
				progressed = true
			}
		}
		res.Rounds++
		if !progressed {
			res.Err = fmt.Errorf("asyncseq: no progress in round %d", res.Rounds)
			break
		}
	}
	res.Gathered = w.Gathered()
	res.FinalRobots = w.Len()
	return res
}
