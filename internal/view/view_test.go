package view

import (
	"testing"

	"gridgather/internal/grid"
	"gridgather/internal/robot"
	"gridgather/internal/swarm"
	"gridgather/internal/world"
)

func testConfig(occ map[grid.Point]bool, states map[grid.Point]robot.State, radius int, checked bool) Config {
	return Config{
		Radius:  radius,
		Checked: checked,
		Occ:     func(p grid.Point) bool { return occ[p] },
		State:   func(p grid.Point) robot.State { return states[p] },
	}
}

func TestViewRelativeCoordinates(t *testing.T) {
	occ := map[grid.Point]bool{{X: 5, Y: 5}: true, {X: 6, Y: 5}: true}
	v := New(testConfig(occ, nil, 10, true), grid.Pt(5, 5), 3)
	if !v.Occ(grid.Zero) {
		t.Error("origin must be occupied")
	}
	if !v.Occ(grid.East) {
		t.Error("east neighbor occupied in world, view disagrees")
	}
	if v.Occ(grid.West) {
		t.Error("west neighbor free in world, view disagrees")
	}
	if v.Round() != 3 {
		t.Errorf("round = %d", v.Round())
	}
}

func TestViewRadiusEnforcement(t *testing.T) {
	occ := map[grid.Point]bool{}
	v := New(testConfig(occ, nil, 4, true), grid.Pt(0, 0), 0)
	// Within radius: fine.
	_ = v.Occ(grid.Pt(2, 2))
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-radius read")
		}
	}()
	_ = v.Occ(grid.Pt(3, 2)) // L1 = 5 > 4
}

func TestViewUncheckedAllowsFarReads(t *testing.T) {
	v := New(testConfig(map[grid.Point]bool{}, nil, 4, false), grid.Pt(0, 0), 0)
	_ = v.Occ(grid.Pt(50, 50)) // must not panic
}

func TestViewStates(t *testing.T) {
	run := robot.Run{ID: 7, Dir: grid.East, Inside: grid.South}
	states := map[grid.Point]robot.State{
		{X: 1, Y: 0}: {Runs: []robot.Run{run}},
		{X: 0, Y: 0}: {Runs: []robot.Run{{ID: 9, Dir: grid.West, Inside: grid.North}}},
	}
	occ := map[grid.Point]bool{{X: 0, Y: 0}: true, {X: 1, Y: 0}: true}
	v := New(testConfig(occ, states, 10, true), grid.Pt(0, 0), 0)
	if got := v.StateAt(grid.East); len(got.Runs) != 1 || got.Runs[0].ID != 7 {
		t.Errorf("StateAt = %+v", got)
	}
	if got := v.Self(); len(got.Runs) != 1 || got.Runs[0].ID != 9 {
		t.Errorf("Self = %+v", got)
	}
}

func TestViewRadiusAccessor(t *testing.T) {
	v := New(testConfig(nil, nil, 13, false), grid.Pt(0, 0), 0)
	if v.Radius() != 13 {
		t.Errorf("radius = %d", v.Radius())
	}
}

// TestViewDenseFastPathStrictRadius proves the direct bitset fast path
// preserves the locality enforcement: reads go straight to the dense
// backend (no closures), but a checked view still panics on any read
// outside the viewing radius — for occupancy and state reads alike.
func TestViewDenseFastPathStrictRadius(t *testing.T) {
	d := world.NewDense(swarm.New(grid.Pt(0, 0), grid.Pt(1, 0)), false)
	v := New(Config{Radius: 4, Checked: true, Dense: d}, grid.Pt(0, 0), 0)
	// In-radius reads answer from the bitset.
	if !v.Occ(grid.Zero) || !v.Occ(grid.East) {
		t.Fatal("fast path misses occupied cells")
	}
	if v.Occ(grid.Pt(2, 2)) {
		t.Fatal("fast path reports a free cell occupied")
	}
	if st := v.StateAt(grid.East); st.HasRuns() {
		t.Fatal("fast path invents run states")
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: out-of-radius read did not panic on the fast path", name)
			}
		}()
		f()
	}
	mustPanic("Occ", func() { v.Occ(grid.Pt(3, 2)) })
	mustPanic("StateAt", func() { v.StateAt(grid.Pt(0, 5)) })
}

// TestViewDenseFastPathMatchesClosures runs the same reads through the
// dense fast path and the closure slow path and requires identical
// answers.
func TestViewDenseFastPathMatchesClosures(t *testing.T) {
	s := swarm.New(grid.Pt(0, 0), grid.Pt(1, 0), grid.Pt(-1, -1), grid.Pt(0, -1))
	d := world.NewDense(s, false)
	fast := New(Config{Radius: 3, Checked: true, Dense: d}, grid.Pt(0, 0), 0)
	slow := New(Config{
		Radius:  3,
		Checked: true,
		Occ:     s.Has,
		State:   func(grid.Point) robot.State { return robot.State{} },
	}, grid.Pt(0, 0), 0)
	for dx := -3; dx <= 3; dx++ {
		for dy := -3; dy <= 3; dy++ {
			rel := grid.Pt(dx, dy)
			if rel.L1() > 3 {
				continue
			}
			if fast.Occ(rel) != slow.Occ(rel) {
				t.Fatalf("Occ(%v) diverged between fast and closure paths", rel)
			}
		}
	}
}

// TestViewDenseReadPathToggles drives a dense view through every change to
// the state that selects its read path (New, Reposition, SetNoise) and
// checks after each that an unchecked view honours the noise flip exactly
// while it is installed, and that a checked view still panics on an
// out-of-radius read.
func TestViewDenseReadPathToggles(t *testing.T) {
	s := swarm.New(grid.Pt(0, 0), grid.Pt(1, 0), grid.Pt(5, 5), grid.Pt(6, 5))
	d := world.NewDense(s, false)
	steps := []struct {
		name  string
		apply func(v *View)
		noise grid.Point // the flip in force after apply
	}{
		{"new", func(*View) {}, grid.Zero},
		{"noise east", func(v *View) { v.SetNoise(grid.East) }, grid.East},
		{"noise north", func(v *View) { v.SetNoise(grid.North) }, grid.North},
		{"noise cleared", func(v *View) { v.SetNoise(grid.Zero) }, grid.Zero},
		{"noise west", func(v *View) { v.SetNoise(grid.West) }, grid.West},
		{"reposition", func(v *View) { v.Reposition(grid.Pt(5, 5), 1) }, grid.Zero},
		{"noise after reposition", func(v *View) { v.SetNoise(grid.East) }, grid.East},
		{"reposition back", func(v *View) { v.Reposition(grid.Pt(0, 0), 2) }, grid.Zero},
	}
	for _, checked := range []bool{false, true} {
		v := New(Config{Radius: 4, Checked: checked, Dense: d}, grid.Pt(0, 0), 0)
		for _, st := range steps {
			st.apply(v)
			for _, rel := range []grid.Point{grid.Zero, grid.East, grid.West, grid.North, grid.Pt(2, 2)} {
				want := s.Has(v.origin.Add(rel))
				if rel == st.noise && rel != grid.Zero {
					want = !want
				}
				if got := v.Occ(rel); got != want {
					t.Errorf("checked=%v after %s: Occ(%v) = %v, want %v", checked, st.name, rel, got, want)
				}
			}
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				v.Occ(grid.Pt(3, 2))
				return false
			}()
			if panicked != checked {
				t.Errorf("checked=%v after %s: out-of-radius read panicked=%v", checked, st.name, panicked)
			}
		}
	}
}
