package core

import (
	"gridgather/internal/grid"
	"gridgather/internal/swarm"
	"gridgather/internal/view"
	"gridgather/internal/world"
)

// Global analysis helpers. These evaluate the algorithm's *local* predicates
// at every robot of a swarm, giving tests and the experiment harness a
// global picture (e.g. "is this swarm mergeless?", the premise of Lemma 1).

// analysisView builds a stateless view over a world built from the swarm,
// for the robot at origin; Reposition moves it to another robot.
func analysisView(s *swarm.Swarm, p Params, origin grid.Point, round int) *view.View {
	return view.New(view.Config{Radius: p.Radius, Dense: world.NewDense(s.Cells(), false)}, origin, round)
}

// MergeBlacks returns every robot that would execute a merge hop this
// round, with its hop direction.
func MergeBlacks(s *swarm.Swarm, p Params) map[grid.Point]grid.Point {
	out := make(map[grid.Point]grid.Point)
	v := analysisView(s, p, grid.Zero, 0)
	for _, c := range s.Cells() {
		v.Reposition(c, 0)
		if d, ok := MergeMove(v, p); ok {
			out[c] = d
		}
	}
	return out
}

// Mergeless reports whether no robot of the swarm can execute a merge — the
// paper's "Mergeless Swarm" (§3.2).
func Mergeless(s *swarm.Swarm, p Params) bool {
	v := analysisView(s, p, grid.Zero, 0)
	for _, c := range s.Cells() {
		v.Reposition(c, 0)
		if _, ok := MergeMove(v, p); ok {
			return false
		}
	}
	return true
}

// StartPoints returns every robot that matches a run starting subboundary,
// with the matched orientations (one entry = Start-A, two = Start-B).
func StartPoints(s *swarm.Swarm, p Params) map[grid.Point][]startMatch {
	out := make(map[grid.Point][]startMatch)
	v := analysisView(s, p, grid.Zero, 0)
	for _, c := range s.Cells() {
		v.Reposition(c, 0)
		matches := startMatches(v)
		switch len(matches) {
		case 1:
			out[c] = matches
		case 2:
			if matches[0].dir.Add(matches[0].inside) == matches[1].dir.Add(matches[1].inside) {
				out[c] = matches
			}
		}
	}
	return out
}

// HasProgress reports whether the swarm admits a merge or a run start — the
// liveness property behind Lemma 1: "Every L = 22 rounds either a merge has
// been performed or else a new progress pair is started." A gathered swarm
// needs no progress.
func HasProgress(s *swarm.Swarm, p Params) bool {
	if s.Gathered() {
		return true
	}
	return !Mergeless(s, p) || len(StartPoints(s, p)) > 0
}

// StartDirections exposes a start match's orientation for tests.
func (m startMatch) Dir() grid.Point { return m.dir }

// Inside exposes a start match's inside direction for tests.
func (m startMatch) Inside() grid.Point { return m.inside }
