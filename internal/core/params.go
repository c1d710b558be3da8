// Package core implements the paper's primary contribution: the local,
// fully synchronous gathering algorithm for connected robot swarms on the
// grid (§3 of the paper), built from
//
//   - merge operations on subboundaries (Fig. 2) including overlapping
//     configurations (Fig. 3),
//   - run states that reshape mergeless swarms (§3.2): run starts at quasi
//     line endpoints (Fig. 7), run operations OP-A/OP-B/OP-C (Fig. 8), run
//     passing (Fig. 9b, §6), and the termination conditions of Table 1,
//
// composed into the per-round robot program of Fig. 11. Every decision is a
// pure function of the robot's radius-limited local view; the view layer
// enforces the radius in checked mode.
package core

import "fmt"

// Params are the algorithm's constants. The paper proves the values
// L = 22 and viewing radius 20 sufficient ("which can still be optimized";
// §5.3 shows L ≥ 13 and radius 11 suffice for the easy passing case).
// The ablation benchmarks vary these.
type Params struct {
	// Radius is the viewing radius (L1 distance). Paper value: 20.
	Radius int
	// L is the run start period: every L-th round robots check the run
	// start configurations (Fig. 11 step 3). Paper value: 22.
	L int
	// MergeMax bounds the length k of a merge configuration ("the maximal
	// size k of a merge configuration is limited by the viewing radius",
	// §3.1). Must be ≤ Radius-1 so an end robot can verify the whole
	// pattern.
	MergeMax int
	// SeqStop is the along-boundary distance at which a runner seeing a
	// sequent run in front of it stops (Table 1, condition 1: "it can see
	// the next sequent run in front of it"). Must be < L-1 so freshly
	// pipelined runs (spaced L apart) are not stopped, and ≤ Radius-2 so
	// the check stays within the viewing radius.
	SeqStop int
	// EndStop is the along-boundary distance at which a runner seeing its
	// quasi line's endpoint in front of it stops (Table 1, condition 2).
	EndStop int
	// PassDist is the run passing distance (§3.2: "we call 3 the run
	// passing distance").
	PassDist int
	// PassGlide is the number of rounds a passing run glides without
	// reshapement hops before resuming normal operation (Fig. 20 shows the
	// longest passing takes 6 rounds).
	PassGlide int
}

// Defaults returns the paper's constants.
func Defaults() Params {
	return Params{
		Radius:    20,
		L:         22,
		MergeMax:  19,
		SeqStop:   18,
		EndStop:   3,
		PassDist:  3,
		PassGlide: 6,
	}
}

// WithConstants returns Defaults with the viewing radius and run start
// period overridden (0 keeps the paper's value) and the dependent constants
// (MergeMax, SeqStop) clamped so the result still satisfies Validate. It is
// the one place the public API, the experiment harness and the sweep runner
// derive ablation parameter sets from.
func WithConstants(radius, l int) Params {
	p := Defaults()
	if radius > 0 {
		p.Radius = radius
	}
	if l > 0 {
		p.L = l
	}
	if p.MergeMax > p.Radius-1 {
		p.MergeMax = p.Radius - 1
	}
	if p.SeqStop > p.Radius-2 {
		p.SeqStop = p.Radius - 2
	}
	if p.SeqStop >= p.L-1 {
		p.SeqStop = p.L - 2
	}
	return p
}

// Validate checks parameter consistency.
func (p Params) Validate() error {
	switch {
	case p.Radius < 5:
		return fmt.Errorf("core: radius %d too small (need ≥ 5)", p.Radius)
	case p.L < 4:
		return fmt.Errorf("core: L %d too small", p.L)
	case p.MergeMax < 2:
		return fmt.Errorf("core: MergeMax %d too small", p.MergeMax)
	case p.MergeMax > p.Radius-1:
		return fmt.Errorf("core: MergeMax %d exceeds Radius-1 = %d", p.MergeMax, p.Radius-1)
	case p.SeqStop > p.Radius-2:
		return fmt.Errorf("core: SeqStop %d exceeds Radius-2 = %d", p.SeqStop, p.Radius-2)
	case p.SeqStop >= p.L-1:
		return fmt.Errorf("core: SeqStop %d would stop freshly pipelined runs (L=%d)", p.SeqStop, p.L)
	case p.EndStop < 1 || p.PassDist < 1 || p.PassGlide < 1:
		return fmt.Errorf("core: distances must be positive")
	}
	return nil
}

// Stats is a point-in-time snapshot of the algorithm's event counters, for
// tests, tracing and the experiment harness.
type Stats struct {
	MergeMoves   int // robots that executed a merge hop (Fig. 2)
	DiagonalHops int // overlap case of Fig. 3b (two perpendicular configs)
	Rolls        int // OP-A reshapement hops
	Glides       int // state moved without a hop (OP-B/OP-C tails)
	PassEnters   int // run passing operations started (Fig. 9b)
	StartsA      int // Start-A runs started (Fig. 7 i)
	StartsB      int // Start-B double runs started (Fig. 7 ii)
	StopSequent  int // Table 1 condition 1
	StopEndpoint int // Table 1 condition 2
	StopGeometry int // Table 1 conditions 4/5 (shape changed under the run)
	StopOntoOcc  int // Table 1 condition 6 (hop onto occupied cell)
}
