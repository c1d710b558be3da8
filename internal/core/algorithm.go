package core

import (
	"gridgather/internal/fsync"
	"gridgather/internal/view"
)

// Gatherer is the paper's gathering algorithm as an FSYNC robot program.
// Every robot executes Compute simultaneously each round (Fig. 11):
//
//  1. Merge: if the robot is a black robot of a merge configuration within
//     its viewing range, it hops (§3.1). Runs held by merging robots stop
//     (Table 1.3).
//  2. Run operations: termination checks (Table 1), run passing, OP-A
//     reshapement or glide (§3.2, §3.3).
//  3. Start new runs: every L-th round, robots matching Start-A/Start-B
//     start one or two runs (Fig. 7).
type Gatherer struct {
	params Params
	stats  Stats
}

// NewGatherer builds the algorithm with the given parameters; it panics on
// invalid parameters (programming error).
func NewGatherer(p Params) *Gatherer {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Gatherer{params: p}
}

// Default returns a Gatherer with the paper's constants (radius 20, L 22).
func Default() *Gatherer { return NewGatherer(Defaults()) }

// Radius implements fsync.Algorithm.
func (g *Gatherer) Radius() int { return g.params.Radius }

// RoundPeriod implements fsync.Periodic: Compute reads the round only
// through the every-L-th-round run-start gate (Fig. 11 step 3), so two
// activations with identical views and rounds congruent mod L decide
// identically — which unlocks the engine's quiescence fast path.
func (g *Gatherer) RoundPeriod() int { return g.params.L }

// Params returns the algorithm's parameters.
func (g *Gatherer) Params() Params { return g.params }

// Stats returns a snapshot of the event counters.
func (g *Gatherer) Stats() Stats { return g.stats }

// Compute implements fsync.Algorithm: the compute step of one robot.
// Decisions read only the view; the only write is to the event counters.
func (g *Gatherer) Compute(v *view.View) fsync.Action {
	// Step 1: merges take precedence. A merging robot drops its run states
	// (Table 1.3: "it was part of a merge operation").
	if d, ok := MergeMove(v, g.params); ok {
		g.stats.MergeMoves++
		if d.IsDiagonalUnit() {
			g.stats.DiagonalHops++
		}
		return fsync.MoveTo(d)
	}

	// Step 2: run operations.
	if v.Self().HasRuns() {
		return g.runnerAction(v)
	}

	// Step 3: start new runs every L-th round.
	if v.Round()%g.params.L == 0 {
		if act, ok := g.startAction(v); ok {
			return act
		}
	}
	return fsync.Stay
}
