package robot

import (
	"testing"

	"gridgather/internal/grid"
)

func TestRunGeometryHelpers(t *testing.T) {
	r := Run{Dir: grid.East, Inside: grid.South}
	if r.Outside() != grid.North {
		t.Errorf("outside = %v", r.Outside())
	}
	oncoming := Run{Dir: grid.West, Inside: grid.South}
	sequent := Run{Dir: grid.East, Inside: grid.North}
	perp := Run{Dir: grid.North, Inside: grid.East}
	if !r.Oncoming(oncoming) || r.Oncoming(sequent) || r.Oncoming(perp) {
		t.Error("Oncoming wrong")
	}
	if !r.Sequent(sequent) || r.Sequent(oncoming) || r.Sequent(perp) {
		t.Error("Sequent wrong")
	}
}

func TestStateClone(t *testing.T) {
	s := State{Runs: []Run{{ID: 1, Dir: grid.East, Inside: grid.South}}}
	c := s.Clone()
	c.Runs[0].ID = 99
	if s.Runs[0].ID != 1 {
		t.Error("clone shares backing array")
	}
	empty := State{}
	if ec := empty.Clone(); ec.HasRuns() {
		t.Error("empty clone has runs")
	}
}

func TestHasRuns(t *testing.T) {
	if (State{}).HasRuns() {
		t.Error("zero state has runs")
	}
	if !(State{Runs: []Run{{}}}).HasRuns() {
		t.Error("non-empty state reports no runs")
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseRoll.String() != "roll" || PhasePassing.String() != "passing" {
		t.Error("phase names wrong")
	}
	if Phase(42).String() == "" {
		t.Error("unknown phase should render")
	}
}

func TestRunString(t *testing.T) {
	r := Run{ID: 3, Dir: grid.East, Inside: grid.South, Age: 7}
	if r.String() == "" {
		t.Error("empty render")
	}
}
