package core

import (
	"gridgather/internal/fsync"
	"gridgather/internal/grid"
	"gridgather/internal/robot"
	"gridgather/internal/view"
)

// This file implements the runner behaviour of §3.2/§3.3: the reshapement
// operations OP-A/OP-B/OP-C of Fig. 8, the run passing operation of
// Fig. 9b/§6, and the termination conditions of Table 1.
//
// Operationally a run alternates between two modes that the paper's three
// named operations reduce to:
//
//   - roll (OP-A): the runner sits at a reshapement corner — the cell
//     behind it (against the moving direction) is free, the inside anchor
//     under it is occupied, and at least three robots ahead of it are
//     straight — and hops to the forward-inside diagonal, handing the run
//     state to the next robot. One round, exactly as Fig. 8a. Hopping onto
//     an occupied cell merges and terminates the run (Table 1.6).
//
//   - glide (OP-B/OP-C tails): the state moves one robot further without a
//     hop. Gliding happens around the ≤2-cell jogs a quasi line may
//     contain ("no diagonal hops are performed until the target corner c
//     is reached") and while two runs pass each other.
//
// The paper's OP-C (the one-time diagonal hop when a Start-B corner emits
// two runs) is performed by the start rule in start.go.

// runnerAction computes the action of a robot currently holding run states.
func (g *Gatherer) runnerAction(v *view.View) fsync.Action {
	var act fsync.Action
	hopped := false
	for _, run := range v.Self().Runs {
		run.Age++

		// Geometry sanity (Table 1, conditions 4/5): the runner must still
		// sit on its quasi line. Merges elsewhere can reshape the boundary
		// and bury a run in the interior; such runs stop. A single occupied
		// outside cell is legal — the runner sits in the inner corner of a
		// jog while gliding around it — so only a buried runner (outside
		// occupied both here and ahead) stops.
		if v.Occ(run.Outside()) && v.Occ(run.Outside().Add(run.Dir)) {
			g.stats.StopGeometry++
			continue
		}

		look := walkAhead(v, run, g.params.SeqStop)

		// Table 1, condition 1: sequent run visible in front.
		if look.SequentAt > 0 && look.SequentAt <= g.params.SeqStop {
			g.stats.StopSequent++
			continue
		}
		// Table 1, condition 2: quasi line endpoint visible in front.
		if look.EndpointAt > 0 && look.EndpointAt <= g.params.EndStop {
			g.stats.StopEndpoint++
			continue
		}

		// Run passing (Fig. 9b): an oncoming run within the run passing
		// distance makes both runs glide past each other without
		// reshapement hops.
		if run.Phase == robot.PhasePassing {
			run.StepsLeft--
			if run.StepsLeft <= 0 {
				run.Phase = robot.PhaseRoll
				run.StepsLeft = 0
			}
			g.glide(v, run, &act)
			continue
		}
		if look.OncomingAt > 0 && look.OncomingAt <= g.params.PassDist {
			run.Phase = robot.PhasePassing
			run.StepsLeft = g.params.PassGlide
			g.stats.PassEnters++
			g.glide(v, run, &act)
			continue
		}

		// OP-A (Fig. 8a): roll if the local shape allows.
		if !hopped && g.canRoll(v, run) {
			hop := run.Dir.Add(run.Inside)
			act.Move = hop
			hopped = true
			g.stats.Rolls++
			if v.Occ(hop) {
				// Table 1, condition 6: hopped onto an occupied cell; one
				// of the robots is removed and the run terminates.
				g.stats.StopOntoOcc++
				continue
			}
			act.AddTransfer(run.Dir, run)
			continue
		}

		// OP-B / OP-C tail: glide one robot further.
		g.glide(v, run, &act)
	}
	return act
}

// canRoll reports whether the runner may execute OP-A: it must be at a
// reshapement corner (free behind, anchored inside) and "the runner and at
// least the next 3 robots are located on a straight line" whose outside is
// exposed.
func (g *Gatherer) canRoll(v *view.View, run robot.Run) bool {
	d, in, out := run.Dir, run.Inside, run.Outside()
	if v.Occ(d.Neg()) || !v.Occ(in) {
		return false
	}
	for i := 1; i <= 3; i++ {
		if !v.Occ(d.Scale(i)) || v.Occ(d.Scale(i).Add(out)) {
			return false
		}
	}
	return true
}

// glide moves the run state to the next robot along the line without a hop.
// If the line has no successor the run terminates (its endpoint was
// reached).
func (g *Gatherer) glide(v *view.View, run robot.Run, act *fsync.Action) {
	next, ok, _ := successor(v, grid.Zero, run.Dir.Neg(), run.Dir, run.Inside)
	if !ok {
		g.stats.StopEndpoint++
		return
	}
	g.stats.Glides++
	act.AddTransfer(next, run)
}
