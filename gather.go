// Package gridgather is a simulation library for local gathering of robot
// swarms on the two-dimensional grid, reproducing
//
//	Cord-Landwehr, Fischer, Jung, Meyer auf der Heide:
//	"Asymptotically Optimal Gathering on a Grid" (SPAA 2016,
//	arXiv:1602.03303)
//
// The paper's algorithm gathers n indistinguishable robots — connected by
// horizontal/vertical adjacency, with no compass, no IDs, no global
// communication and only constant-radius vision — into a 2×2 square in
// O(n) fully synchronous rounds, which is asymptotically optimal.
//
// The public surface is the Simulation session: a resumable, observable,
// checkpointable simulation created with New (or Restore, from a
// Snapshot) and driven incrementally with Step/StepN or to completion
// with Run.
//
// Quick start:
//
//	cells, _ := gridgather.Workload("hollow", 100)
//	sim, _ := gridgather.New(cells)
//	res := sim.Run(context.Background())
//	fmt.Printf("gathered in %d rounds\n", res.Rounds)
//
// The algorithm itself and its substrates (grid geometry, swarm state,
// the FSYNC engine, local views, baselines) live in the internal
// packages.
//
//gather:deterministic
package gridgather

import (
	"errors"
	"fmt"
	"slices"

	"gridgather/internal/fault"
	"gridgather/internal/gen"
	"gridgather/internal/grid"
	"gridgather/internal/sched"
	"gridgather/internal/swarm"
	"gridgather/internal/world"
)

// Point is a grid cell. Robots occupy points; two robots are connected when
// their points are horizontal or vertical neighbors.
type Point struct {
	X, Y int
}

// Result summarizes a simulation.
type Result struct {
	// Gathered reports whether all robots ended within one 2×2 square.
	Gathered bool
	// Rounds is the number of FSYNC rounds executed.
	Rounds int
	// Merges is the number of robots removed by merge operations.
	Merges int
	// RunsStarted counts the run states created (§3.2 reshapement).
	RunsStarted int
	// Moves counts individual robot hops.
	Moves int
	// InitialRobots and FinalRobots give the population before and after.
	InitialRobots, FinalRobots int
	// Crashes counts the robots that crash-stopped (WithFaults; 0 in a
	// clean run) and Degraded reports whether a fault disconnected the
	// swarm and the run continued on the largest surviving component.
	Crashes  int
	Degraded bool
	// Err reports an aborted or cancelled simulation (round limit,
	// disconnection, stuck watchdog, or context cancellation) and is nil
	// on success.
	Err error
}

// ErrNotConnected is returned when the input cells do not form a connected
// swarm — the algorithm's precondition ("given an arbitrarily distributed
// (yet connected) swarm").
var ErrNotConnected = errors.New("gridgather: input swarm is not connected")

// ErrEmpty is returned for an empty input.
var ErrEmpty = errors.New("gridgather: input swarm is empty")

// ErrCoordinateRange is returned for an input cell with |X| or |Y| above
// 2^62: robots look and move a bounded distance past their cell, and the
// bound keeps those reads clear of the int64 wrap.
var ErrCoordinateRange = errors.New("gridgather: cell coordinate beyond ±2^62")

// ErrNegativeMaxRounds is returned for a negative WithMaxRounds, which is
// reserved (0 already selects the default budget; there is no "unlimited"
// knob in the public API — a broken configuration should abort, not spin).
var ErrNegativeMaxRounds = errors.New("gridgather: negative MaxRounds (0 selects the default budget)")

// canonicalCells returns the cells in a fresh slice in the world's
// canonical (Y, X) order, repeats collapsed. It refuses an empty input
// (ErrEmpty) and a cell beyond ±2^62 (ErrCoordinateRange, naming the first
// such cell in input order).
func canonicalCells(cells []Point) ([]grid.Point, error) {
	if len(cells) == 0 {
		return nil, ErrEmpty
	}
	pts := make([]grid.Point, len(cells))
	for i, c := range cells {
		p := grid.Pt(c.X, c.Y)
		if !p.InRange() {
			return nil, fmt.Errorf("%w: cell (%d,%d)", ErrCoordinateRange, c.X, c.Y)
		}
		pts[i] = p
	}
	slices.SortFunc(pts, grid.Point.Compare)
	return slices.Compact(pts), nil
}

// floodWorld builds the world over canonical cells, which it keeps, and
// reports whether they are 4-connected by one scratch flood. A bounding
// box whose semi-perimeter reaches the population cannot hold a connected
// swarm; it is refused before the world, whose chunk table covers the
// box, is built, so a stray far cell cannot make it reserve an empty
// plane.
func floodWorld(pts []grid.Point, withClocks bool) (*world.Dense, bool) {
	b := grid.EmptyRect
	for _, p := range pts {
		b = b.Include(p)
	}
	n := uint64(len(pts))
	if w, h := uint64(b.MaxX-b.MinX), uint64(b.MaxY-b.MinY); w >= n || h >= n || w+h >= n {
		return nil, false
	}
	d := world.NewDense(pts, withClocks)
	return d, d.ConnectedBFS()
}

func fromSwarm(s *swarm.Swarm) []Point {
	cells := s.Cells()
	out := make([]Point, len(cells))
	for i, c := range cells {
		out[i] = Point{X: c.X, Y: c.Y}
	}
	return out
}

// Workload builds one of the named workload families at (approximately)
// the requested robot count; randomized families use seed 42. See
// Workloads for the available names.
func Workload(name string, n int) ([]Point, error) {
	if n < 1 {
		return nil, fmt.Errorf("gridgather: workload size %d", n)
	}
	w, ok := gen.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("gridgather: unknown workload %q (have %v)", name, Workloads())
	}
	return fromSwarm(w.Build(n, 42)), nil
}

// Workloads lists the available workload family names.
func Workloads() []string {
	var names []string
	for _, w := range gen.SeededCatalog() {
		names = append(names, w.Name)
	}
	return names
}

// Schedulers lists the accepted scheduler spec grammars (see
// WithScheduler).
func Schedulers() []string { return sched.Specs() }

// FaultSpecs lists the accepted fault clause grammars (see WithFaults).
func FaultSpecs() []string { return fault.Specs() }

// Algorithms lists the available robot program names (see WithAlgorithm).
func Algorithms() []string { return []string{"paper", "greedy"} }

// Connected reports whether the cells form a connected swarm under the
// paper's horizontal/vertical adjacency, by the check New makes. It
// reports false for cells New refuses before looking at their shape: none
// at all, or one beyond ±2^62.
func Connected(cells []Point) bool {
	pts, err := canonicalCells(cells)
	if err != nil {
		return false
	}
	_, ok := floodWorld(pts, false)
	return ok
}

// Render draws the cells as ASCII art ('#' robots, '.' free), highest y
// first — a convenience for demos and debugging.
func Render(cells []Point) string {
	s := swarm.NewSized(len(cells))
	for _, c := range cells {
		s.Add(grid.Pt(c.X, c.Y))
	}
	return s.String()
}
