// Package robot defines the per-robot state of the gathering algorithm: the
// run states of §3.2 of the paper. Robots are anonymous and carry only "a
// fixed small amount of memory to store a constant number of states"; a
// robot can hold at most two run states at a time (the Start-B case of
// Fig. 7 starts two runs at once).
package robot

import (
	"fmt"

	"gridgather/internal/grid"
)

// MaxRuns is the maximum number of run states a robot can store, per the
// paper: "A robot can start and store up to two run states at the same
// time."
const MaxRuns = 2

// Phase describes what a run state is currently doing.
type Phase int

const (
	// PhaseRoll is normal operation: the runner performs the reshapement
	// operation OP-A (diagonal hop) whenever the local shape allows it and
	// glides (OP-B/OP-C tail, i.e. moves the state without hopping)
	// otherwise.
	PhaseRoll Phase = iota
	// PhasePassing is the run passing operation of Fig. 9b/§6: the run keeps
	// moving along the boundary but the runners perform no diagonal hops
	// until the passing completes.
	PhasePassing
)

func (p Phase) String() string {
	switch p {
	case PhaseRoll:
		return "roll"
	case PhasePassing:
		return "passing"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// Run is a run state S (§3.2). Its moving direction is fixed when the run is
// started ("its initially set moving direction always remains unchanged")
// and is stored as a pair of perpendicular unit vectors: Dir, the direction
// of travel along the quasi line, and Inside, pointing from the line toward
// the swarm side that reshapement hops move robots to.
//
// The simulator stores the vectors in world coordinates. A physical robot
// has no compass, but it sees the states and relative positions of all
// robots in its viewing range (§1, "Our Local Grid Model"), from which the
// travel direction is recovered relative to its own skewed coordinate
// system; the world-frame representation is equivalent bookkeeping.
type Run struct {
	// ID identifies the run for tracing and metrics. It is assigned by the
	// engine when the run is first transferred and plays no role in any
	// decision (robots are anonymous; runs are too).
	ID int
	// Dir is the travel direction along the boundary (axis unit vector).
	Dir grid.Point
	// Inside points from the quasi line toward the reshapement side.
	Inside grid.Point
	// Phase is the current operation mode.
	Phase Phase
	// StepsLeft counts remaining forced-glide steps while Phase ==
	// PhasePassing.
	StepsLeft int
	// Age is the number of rounds since the run started.
	Age int
}

// Outside returns the direction opposite Inside: from the quasi line toward
// the empty side.
func (r Run) Outside() grid.Point { return r.Inside.Neg() }

// Oncoming reports whether other travels in the opposite direction, i.e.
// the two runs are moving towards each other.
func (r Run) Oncoming(other Run) bool { return other.Dir == r.Dir.Neg() }

// Sequent reports whether other travels in the same direction (the paper's
// "sequent runs", Fig. 10).
func (r Run) Sequent(other Run) bool { return other.Dir == r.Dir }

func (r Run) String() string {
	return fmt.Sprintf("run#%d dir=%v in=%v %v age=%d", r.ID, r.Dir, r.Inside, r.Phase, r.Age)
}

// State is the complete mutable state a robot carries between rounds.
type State struct {
	Runs []Run
}

// HasRuns reports whether the robot currently is a runner.
func (s State) HasRuns() bool { return len(s.Runs) > 0 }

// Clone returns a deep copy.
func (s State) Clone() State {
	if s.Runs == nil {
		return State{}
	}
	out := State{Runs: make([]Run, len(s.Runs))}
	copy(out.Runs, s.Runs)
	return out
}
