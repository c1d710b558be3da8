// Package view implements the local-vision substrate: the snapshot a robot
// obtains in the look step of the look-compute-move cycle, restricted to a
// constant viewing radius measured in L1 distance (§1, "Our Local Grid
// Model"; the algorithm needs radius 20).
//
// All coordinates exposed by a View are relative to the observing robot.
// In checked mode the View panics when a decision procedure reads a cell
// outside the viewing radius — this is how the repository enforces that the
// algorithm is genuinely local.
package view

import (
	"fmt"

	"gridgather/internal/grid"
	"gridgather/internal/robot"
	"gridgather/internal/world"
)

// View is one robot's lazy snapshot of its surroundings. Lookups are
// delegated to the engine's immutable pre-round state, so constructing a
// view is O(1) and only the cells actually inspected are touched.
type View struct {
	origin  grid.Point
	slot    int32 // the observing robot's world slot, or -1 when not given
	radius  int
	checked bool
	dense   *world.Dense
	round   int
	noise   grid.Point // non-zero: occupancy reads at this offset are inverted
	// fast marks an unchecked, noise-free view: Occ is then a bare bit
	// test. Derived by refresh whenever checked or noise change.
	fast bool
}

// Config bundles the engine-side accessors for building views.
type Config struct {
	// Radius is the viewing radius (L1).
	Radius int
	// Checked panics on out-of-radius reads when true.
	Checked bool
	// Dense is the world the view reads: lookups go straight to the tiled
	// bitset (concrete method calls, no closures, no hashing). Its crash
	// marks (Dense.Crash) are what CrashedAt reports.
	Dense *world.Dense
}

// New builds the view of the robot at world position origin for the given
// round number.
func New(cfg Config, origin grid.Point, round int) *View {
	v := &View{
		origin:  origin,
		slot:    -1,
		radius:  cfg.Radius,
		checked: cfg.Checked,
		dense:   cfg.Dense,
		round:   round,
	}
	v.refresh()
	return v
}

// refresh re-derives the fast-path flag from the fields it depends on.
func (v *View) refresh() {
	v.fast = !v.checked && v.noise == (grid.Point{})
}

// Reposition retargets the view at a new observing robot and round,
// reusing the allocation. The engine's compute loop calls it once per robot
// so a full round costs O(1) view allocations per worker instead of one per
// robot. The accessors and radius are unchanged; only the origin and round
// move.
func (v *View) Reposition(origin grid.Point, round int) {
	v.RepositionSlot(origin, -1, round)
}

// RepositionSlot is Reposition for a caller that already holds the world
// slot of the robot at origin (the engine's compute loop): Self then reads
// the robot's state by slot instead of looking its cell up. A negative
// slot means "not known", as after Reposition.
func (v *View) RepositionSlot(origin grid.Point, slot int32, round int) {
	v.origin = origin
	v.slot = slot
	v.round = round
	v.noise = grid.Point{}
	v.refresh()
}

// SetNoise installs a sensor-noise flip for this activation: occupancy
// reads at exactly the given relative offset return the inverted value.
// The zero offset clears the flip (a robot always senses itself
// correctly). Reposition resets the flip, so noise never leaks across
// robots when the engine reuses a view allocation.
func (v *View) SetNoise(rel grid.Point) {
	v.noise = rel
	v.refresh()
}

// Radius returns the viewing radius.
func (v *View) Radius() int { return v.radius }

// Round returns the global round number. The FSYNC model gives all robots a
// common round counter (rounds are synchronous and of equal length), which
// the algorithm uses for the "every L-th round" run-start schedule (Fig. 11
// step 3).
func (v *View) Round() int { return v.round }

func (v *View) check(rel grid.Point) {
	if v.checked && rel.L1() > v.radius {
		outOfRadius(rel, v.radius)
	}
}

// outOfRadius is check's failure path, kept out of line so that check
// carries no formatting code.
//
//go:noinline
func outOfRadius(rel grid.Point, radius int) {
	panic(fmt.Sprintf("view: read at relative %v exceeds viewing radius %d", rel, radius))
}

// Occ reports whether the cell at the given offset from the observing robot
// is occupied. Occ(grid.Zero) is always true.
func (v *View) Occ(rel grid.Point) bool {
	if v.fast {
		return v.dense.Has(v.origin.Add(rel))
	}
	return v.occSlow(rel)
}

// occSlow is Occ for views that are checked or noisy.
func (v *View) occSlow(rel grid.Point) bool {
	v.check(rel)
	occ := v.dense.Has(v.origin.Add(rel))
	if rel == v.noise && v.noise != (grid.Point{}) {
		return !occ
	}
	return occ
}

// Block3 returns the occupancy of the 3×3 block of cells around the
// observing robot, in grid.Block3's bit layout. The centre bit is set:
// Occ(grid.Zero) is always true. A fast view reads the block as three
// shifted row words (world.Dense.Block3); a checked or noisy view makes
// the eight Occ reads it stands for, so a noise flip on a neighbour is
// honoured.
func (v *View) Block3() grid.Block3 {
	if v.fast {
		return grid.Block3Bit(grid.Zero) | v.dense.Block3(v.origin)
	}
	return v.block3Slow()
}

// block3Slow is Block3 for views that are checked or noisy.
func (v *View) block3Slow() grid.Block3 {
	b := grid.Block3Bit(grid.Zero)
	for y := -1; y <= 1; y++ {
		for x := -1; x <= 1; x++ {
			if rel := grid.Pt(x, y); rel != grid.Zero && v.occSlow(rel) {
				b |= grid.Block3Bit(rel)
			}
		}
	}
	return b
}

// Run counts the consecutive occupied cells step, 2·step, … from the
// observing robot, stopping at the first free cell or after max cells.
// step must be a unit axis vector. The answer and, on a checked or noisy
// view, the order of the reads are those of the loop
//
//	n := 0
//	for n < max && v.Occ(step.Scale(n+1)) { n++ }
//
// so a checked view panics at the first out-of-radius cell that loop would
// read, and a noise flip inside the run is honoured. A fast view counts
// whole tile lines instead, row words along x and column words along y
// (world.Dense.RunLen).
func (v *View) Run(step grid.Point, max int) int {
	if v.fast {
		return v.dense.RunLen(v.origin, step, max)
	}
	n := 0
	for n < max && v.occSlow(step.Scale(n+1)) {
		n++
	}
	return n
}

// AnyIn reports whether any of the count cells from, from+step, …,
// from+(count-1)·step (offsets from the observing robot) is occupied.
// step must be a unit axis vector. Like Run, it answers as Occ reads in
// that order would, stopping at the first occupied cell, and a fast view
// tests the segment with masked row or column words (world.Dense.AnyIn).
func (v *View) AnyIn(from, step grid.Point, count int) bool {
	if v.fast {
		return v.dense.AnyIn(v.origin.Add(from), step, count)
	}
	for i := 0; i < count; i++ {
		if v.occSlow(from.Add(step.Scale(i))) {
			return true
		}
	}
	return false
}

// CrashedAt reports whether the cell at the given offset holds a
// crash-stopped robot. Always false when the world carries no crash marks.
// Exposing it in views is the failure-detector assumption of the
// crash-stop model: a robot can tell a crashed neighbor from a live one,
// but learns nothing else about it. The liveness read is gated on the
// (possibly noise-corrupted) occupancy read, so the view never tells an
// inconsistent story: a noise flip that hides a crashed robot also hides
// its crash mark, and a phantom robot conjured on a free cell always reads
// as live.
func (v *View) CrashedAt(rel grid.Point) bool {
	return v.Occ(rel) && v.dense.CrashedAt(v.origin.Add(rel))
}

// StateAt returns the state of the robot at the given offset. Robots can
// "see the states of all robots inside the viewing range".
func (v *View) StateAt(rel grid.Point) robot.State {
	v.check(rel)
	return v.dense.StateAt(v.origin.Add(rel))
}

// Self returns the observing robot's own state: read by slot when the view
// was placed with RepositionSlot, through a cell lookup otherwise.
func (v *View) Self() robot.State {
	if v.slot >= 0 {
		return v.dense.StateOf(v.slot)
	}
	return v.dense.StateAt(v.origin)
}
