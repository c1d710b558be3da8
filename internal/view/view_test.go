package view

import (
	"fmt"
	"testing"

	"gridgather/internal/grid"
	"gridgather/internal/robot"
	"gridgather/internal/swarm"
	"gridgather/internal/world"
)

// testConfig builds a view config over a world holding the occupied cells
// of occ, each cell in states carrying that run state.
func testConfig(occ map[grid.Point]bool, states map[grid.Point]robot.State, radius int, checked bool) Config {
	s := swarm.New()
	for p, ok := range occ {
		if ok {
			s.Add(p)
		}
	}
	d := world.NewDense(s.Cells(), false)
	for p, st := range states {
		d.SetState(p, st)
	}
	return Config{Radius: radius, Checked: checked, Dense: d}
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

// A view placed with RepositionSlot reads Self by slot; it must answer
// what the cell lookup does, and Reposition must drop the slot again.
func TestViewSelfBySlot(t *testing.T) {
	d := world.NewDense(swarm.New(grid.Pt(0, 0), grid.Pt(1, 0), grid.Pt(2, 0)).Cells(), false)
	d.SetState(grid.Pt(1, 0), robot.State{Runs: []robot.Run{{ID: 4, Dir: grid.East, Inside: grid.North}}})
	v := New(Config{Radius: 4, Dense: d}, grid.Pt(0, 0), 0)
	for _, p := range d.Cells() {
		v.RepositionSlot(p, d.SlotAt(p), 1)
		if got, want := v.Self(), d.StateAt(p); len(got.Runs) != len(want.Runs) || (len(got.Runs) > 0 && got.Runs[0] != want.Runs[0]) {
			t.Errorf("Self at %v by slot = %+v, by cell %+v", p, got, want)
		}
	}
	v.RepositionSlot(grid.Pt(1, 0), d.SlotAt(grid.Pt(1, 0)), 1)
	v.Reposition(grid.Pt(0, 0), 2)
	if v.Self().HasRuns() {
		t.Error("Reposition kept the previous robot's slot")
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
	d := world.NewDense(swarm.New(grid.Pt(0, 0), grid.Pt(1, 0)).Cells(), false)
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
// unchecked bit-test path and the checked per-cell path over one world and
// requires both to answer as the swarm's own Has closure does.
func TestViewDenseFastPathMatchesClosures(t *testing.T) {
	s := swarm.New(grid.Pt(0, 0), grid.Pt(1, 0), grid.Pt(-1, -1), grid.Pt(0, -1))
	d := world.NewDense(s.Cells(), false)
	fast := New(Config{Radius: 3, Dense: d}, grid.Pt(0, 0), 0)
	slow := New(Config{Radius: 3, Checked: true, Dense: d}, grid.Pt(0, 0), 0)
	has := s.Has
	for dx := -3; dx <= 3; dx++ {
		for dy := -3; dy <= 3; dy++ {
			rel := grid.Pt(dx, dy)
			if rel.L1() > 3 {
				continue
			}
			if fast.Occ(rel) != has(rel) || slow.Occ(rel) != has(rel) {
				t.Fatalf("Occ(%v): fast %v, checked %v, swarm %v", rel, fast.Occ(rel), slow.Occ(rel), has(rel))
			}
		}
	}
}

// readOutcome runs one read and describes its result, or the panic it
// raised, so that two ways of reading can be compared outcome for outcome.
func readOutcome(read func() any) (out string) {
	defer func() {
		if r := recover(); r != nil {
			out = fmt.Sprintf("panic: %v", r)
		}
	}()
	return fmt.Sprint(read())
}

// checkRunReads compares View.Block3 with the eight Occ reads it stands
// for, and View.Run and View.AnyIn with the per-cell Occ loops they stand
// for, in all four axis directions, for negative lengths,
// lengths that run past the radius, and segments starting on and off the
// axes. On a checked view the outcomes include the panic, whose message
// names the offset of the first out-of-radius read.
func checkRunReads(t *testing.T, v *View, label string) {
	t.Helper()
	want := grid.Block3(0)
	for y := -1; y <= 1; y++ {
		for x := -1; x <= 1; x++ {
			if rel := grid.Pt(x, y); rel == grid.Zero || v.Occ(rel) {
				want |= grid.Block3Bit(rel)
			}
		}
	}
	if got := v.Block3(); got != want {
		t.Errorf("%s: Block3() = %09b, per-cell reads give %09b", label, got, want)
	}
	for _, step := range grid.Axis4 {
		for n := -2; n <= 2*v.Radius(); n++ {
			got := readOutcome(func() any { return v.Run(step, n) })
			want := readOutcome(func() any {
				k := 0
				for k < n && v.Occ(step.Scale(k+1)) {
					k++
				}
				return k
			})
			if got != want {
				t.Errorf("%s: Run(%v, %d) = %s, per-cell reads give %s", label, step, n, got, want)
			}
			for _, from := range []grid.Point{grid.Zero, step.Neg(), step.PerpCW(), step.Scale(-2).Add(step.PerpCCW())} {
				got := readOutcome(func() any { return v.AnyIn(from, step, n) })
				want := readOutcome(func() any {
					for i := 0; i < n; i++ {
						if v.Occ(from.Add(step.Scale(i))) {
							return true
						}
					}
					return false
				})
				if got != want {
					t.Errorf("%s: AnyIn(%v, %v, %d) = %s, per-cell reads give %s", label, from, step, n, got, want)
				}
			}
		}
	}
}

// TestViewDenseReadPathToggles drives a dense view through every change to
// the state that selects its read path (New, Reposition, SetNoise) and
// checks after each that an unchecked view honours the noise flip exactly
// while it is installed, that a checked view still panics on an
// out-of-radius read, that only an unchecked noise-free view takes the
// word path, and that the run and segment reads answer — or panic — as
// the per-cell reads do. A second view, driven through the same steps over
// a world of long runs, carries the run and segment checks where runs
// cross the radius; a noise flip is then moved over every offset of its
// viewing diamond, through the runs and segments those reads cover.
func TestViewDenseReadPathToggles(t *testing.T) {
	s := swarm.New(grid.Pt(0, 0), grid.Pt(1, 0), grid.Pt(5, 5), grid.Pt(6, 5))
	d := world.NewDense(s.Cells(), false)
	// Runs through both origins the steps use, longer than the radius on
	// some sides, and cells beside them for the segment reads.
	rs := swarm.New()
	for i := -3; i <= 6; i++ {
		rs.Add(grid.Pt(i, 0))
		rs.Add(grid.Pt(5+i, 5))
	}
	for i := -2; i <= 3; i++ {
		rs.Add(grid.Pt(0, i))
		rs.Add(grid.Pt(5, 5+2*i))
	}
	rs.Add(grid.Pt(2, 1))
	rs.Add(grid.Pt(-2, -1))
	rs.Add(grid.Pt(7, 4))
	rd := world.NewDense(rs.Cells(), false)
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
		rv := New(Config{Radius: 4, Checked: checked, Dense: rd}, grid.Pt(0, 0), 0)
		for _, st := range steps {
			st.apply(v)
			st.apply(rv)
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
			wantFast := !checked && st.noise == grid.Zero
			if v.fast != wantFast || rv.fast != wantFast {
				t.Errorf("checked=%v after %s: word path = %v and %v, want %v", checked, st.name, v.fast, rv.fast, wantFast)
			}
			checkRunReads(t, v, fmt.Sprintf("checked=%v after %s", checked, st.name))
			checkRunReads(t, rv, fmt.Sprintf("checked=%v long runs after %s", checked, st.name))
		}

		// A flip anywhere in the diamond: inside a run, at its end, beside
		// it, or on a segment cell. Occ is checked against the world with
		// the flip applied, so that flips both ways are seen directly.
		flipped, toOcc, toFree := 0, 0, 0
		for dx := -4; dx <= 4; dx++ {
			for dy := -4; dy <= 4; dy++ {
				noise := grid.Pt(dx, dy)
				if noise.L1() > 4 || noise == grid.Zero {
					continue
				}
				rv.Reposition(grid.Pt(0, 0), 3)
				clean := readOutcome(func() any { return rv.Run(grid.East, 6) })
				rv.SetNoise(noise)
				if readOutcome(func() any { return rv.Run(grid.East, 6) }) != clean {
					flipped++
				}
				if rs.Has(noise) {
					toFree++
				} else {
					toOcc++
				}
				for ex := -4; ex <= 4; ex++ {
					for ey := -4; ey <= 4; ey++ {
						rel := grid.Pt(ex, ey)
						if rel.L1() > 4 {
							continue
						}
						if got, want := rv.Occ(rel), rs.Has(rel) != (rel == noise); got != want {
							t.Errorf("checked=%v noise %v: Occ(%v) = %v, want %v", checked, noise, rel, got, want)
						}
					}
				}
				checkRunReads(t, rv, fmt.Sprintf("checked=%v noise %v", checked, noise))
				rv.Reposition(grid.Pt(5, 5), 4)
				if rv.fast == checked {
					t.Errorf("checked=%v: Reposition after SetNoise(%v) left word path = %v", checked, noise, rv.fast)
				}
			}
		}
		if flipped == 0 || toOcc == 0 || toFree == 0 {
			t.Errorf("checked=%v: the sweep changed the eastward run %d times and flipped %d free and %d occupied cells; want each > 0",
				checked, flipped, toOcc, toFree)
		}
	}
}

// CrashedAt reads the world's crash marks through the view's occupancy
// read: a noise flip that hides a crashed robot hides its mark, and a
// phantom robot on a free cell reads as live.
func TestCrashedAtReadsWorldMarks(t *testing.T) {
	occ := map[grid.Point]bool{{X: 0, Y: 0}: true, {X: 1, Y: 0}: true, {X: 2, Y: 0}: true}
	cfg := testConfig(occ, nil, 4, true)
	v := New(cfg, grid.Pt(0, 0), 0)
	if v.CrashedAt(grid.East) {
		t.Fatal("crash mark reported before the world enabled crashes")
	}
	cfg.Dense.EnableCrashes()
	cfg.Dense.Crash(grid.Pt(1, 0))
	if !v.CrashedAt(grid.East) || v.CrashedAt(grid.Pt(2, 0)) || v.CrashedAt(grid.Zero) {
		t.Fatal("CrashedAt does not match the world's marks")
	}
	v.SetNoise(grid.East)
	if v.CrashedAt(grid.East) {
		t.Fatal("a noise flip hiding the crashed robot must hide its mark")
	}
	v.SetNoise(grid.North)
	if v.CrashedAt(grid.North) {
		t.Fatal("a phantom robot must read as live")
	}
}
