// Property and differential tests for the dense backend's occupancy
// semantics: arbitrary Add/Remove sequences — including negative
// coordinates, cells straddling chunk boundaries, and far-apart cells that
// force the chunk table to grow — must leave Dense agreeing with the
// map-backed swarm oracle on Has/Len/Bounds/Cells/Connected/Gathered.
package world

import (
	"math/rand"
	"testing"

	"gridgather/internal/gen"
	"gridgather/internal/grid"
	"gridgather/internal/robot"
	"gridgather/internal/swarm"
)

// checkAgainstOracle compares every occupancy observable of d against the
// swarm oracle, and checks that the column words are the transpose of the
// row words and that every slot of the cell order is the one the tile
// plane holds at its cell, with no slot repeated.
func checkAgainstOracle(t *testing.T, d *Dense, s *swarm.Swarm, probes []grid.Point) {
	t.Helper()
	if err := d.ColumnsMismatch(); err != nil {
		t.Fatal(err)
	}
	if err := d.SlotsMismatch(); err != nil {
		t.Fatal(err)
	}
	if d.Len() != s.Len() {
		t.Fatalf("Len: dense %d, oracle %d", d.Len(), s.Len())
	}
	if db, sb := d.Bounds(), s.Bounds(); db != sb {
		t.Fatalf("Bounds: dense %v, oracle %v", db, sb)
	}
	cells := d.Cells()
	oracle := s.Cells()
	if len(cells) != len(oracle) {
		t.Fatalf("Cells length: dense %d, oracle %d", len(cells), len(oracle))
	}
	for i := range cells {
		if cells[i] != oracle[i] {
			t.Fatalf("Cells[%d]: dense %v, oracle %v", i, cells[i], oracle[i])
		}
	}
	for _, p := range probes {
		if got, want := d.Has(p), s.Has(p); got != want {
			t.Fatalf("Has(%v): dense %v, oracle %v", p, got, want)
		}
	}
	if got, want := d.Connected(), s.Connected(); got != want {
		t.Fatalf("Connected: dense %v, oracle %v", got, want)
	}
	if got, want := d.Gathered(), s.Gathered(); got != want {
		t.Fatalf("Gathered: dense %v, oracle %v", got, want)
	}
}

// applyOps replays an op stream (coordinate pairs with an add/remove bit)
// on a fresh Dense and swarm oracle, comparing after every step.
func applyOps(t *testing.T, ops []struct {
	p   grid.Point
	add bool
}, probes []grid.Point) {
	t.Helper()
	s := swarm.New()
	d := NewDense(s, false)
	for i, op := range ops {
		if op.add {
			d.Add(op.p)
			s.Add(op.p)
		} else {
			d.Remove(op.p)
			s.Remove(op.p)
		}
		if i%7 == 0 || i == len(ops)-1 {
			checkAgainstOracle(t, d, s, probes)
		}
	}
}

// TestDenseOccupancyProperty drives seeded random Add/Remove sequences
// over a coordinate range that crosses chunk boundaries in all four
// quadrants (chunk size 64: the range [-130, 130] spans five chunk columns
// including the negative-to-positive seam).
func TestDenseOccupancyProperty(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var ops []struct {
			p   grid.Point
			add bool
		}
		var pool []grid.Point
		for i := 0; i < 300; i++ {
			var p grid.Point
			if len(pool) > 0 && rng.Intn(3) == 0 {
				p = pool[rng.Intn(len(pool))] // revisit: duplicate adds / real removes
			} else {
				p = grid.Pt(rng.Intn(261)-130, rng.Intn(261)-130)
				pool = append(pool, p)
			}
			ops = append(ops, struct {
				p   grid.Point
				add bool
			}{p, rng.Intn(3) != 0})
		}
		probes := pool
		applyOps(t, ops, probes)
	}
}

// TestDenseFarApartGrowth places cells tens of thousands of cells apart —
// each Add lands outside the chunk table and forces it to grow — and
// checks the observables still match the oracle, including the
// the multi-component Connected answer.
func TestDenseFarApartGrowth(t *testing.T) {
	pts := []grid.Point{
		grid.Pt(0, 0), grid.Pt(1, 0),
		grid.Pt(20000, 3), grid.Pt(20001, 3),
		grid.Pt(-15000, -7), grid.Pt(-15000, -8),
		grid.Pt(5, 30000), grid.Pt(-3, -25000),
	}
	s := swarm.New()
	d := NewDense(s, false)
	for _, p := range pts {
		d.Add(p)
		s.Add(p)
		checkAgainstOracle(t, d, s, pts)
	}
	if d.Connected() {
		t.Fatal("far-apart cells reported connected")
	}
	for _, p := range pts[:4] {
		d.Remove(p)
		s.Remove(p)
		checkAgainstOracle(t, d, s, pts)
	}
}

// TestDenseConstructionMatchesWorkloads builds Dense from every seeded
// workload and checks the full observable surface, plus slot assignment in
// sorted cell order.
func TestDenseConstructionMatchesWorkloads(t *testing.T) {
	for _, w := range gen.SeededCatalog() {
		t.Run(w.Name, func(t *testing.T) {
			s := w.Build(80, 7)
			d := NewDense(s, false)
			checkAgainstOracle(t, d, s, s.Cells())
			for i, slot := range d.Slots() {
				if slot != int32(i) {
					t.Fatalf("initial slot %d = %d, want index order", i, slot)
				}
			}
			if snap := d.Snapshot(); !snap.Equal(s) {
				t.Fatal("Snapshot differs from source swarm")
			}
		})
	}
}

// TestSortNearSortedFallback feeds the insertion pass a fully reversed
// permutation — far past the shift budget — and checks the fallback still
// sorts correctly and moves every slot with its cell.
func TestSortNearSortedFallback(t *testing.T) {
	const n = 4096
	cells := make([]grid.Point, n)
	slots := make([]int32, n)
	for i := range cells {
		cells[i], slots[i] = grid.Pt(n-i, 0), int32(i)
	}
	sortNearSorted(cells, slots)
	for i := 1; i < n; i++ {
		if !cells[i-1].Less(cells[i]) {
			t.Fatalf("not sorted at %d: %v then %v", i, cells[i-1], cells[i])
		}
	}
	for i, p := range cells {
		if want := int32(n - p.X); slots[i] != want {
			t.Fatalf("cell %v carries slot %d, want %d", p, slots[i], want)
		}
	}
}

// TestDenseClocksDisabled pins the clocks-off contract: ClockAt is 0 and
// RaiseClock a no-op.
func TestDenseClocksDisabled(t *testing.T) {
	d := NewDense(swarm.New(grid.Pt(0, 0)), false)
	d.BeginRound()
	d.Arrive(grid.Pt(0, 0), grid.Pt(0, 0))
	d.SetArrivalState(grid.Pt(0, 0), robot.State{})
	d.RaiseClock(grid.Pt(0, 0), 9)
	d.Commit()
	if got := d.ClockAt(grid.Pt(0, 0)); got != 0 {
		t.Fatalf("ClockAt with clocks disabled = %d", got)
	}
}

// Crash marks belong to slots: Crash marks a robot, the mark stays with
// the robot as long as it is the cell's first arrival, dies with its slot
// when it is merged onto, and Add extends the table.
func TestCrashMarks(t *testing.T) {
	d := NewDense(swarm.New(grid.Pt(0, 0), grid.Pt(1, 0), grid.Pt(2, 0)), false)
	if d.CrashedAt(grid.Pt(1, 0)) || d.Crashed(d.SlotAt(grid.Pt(1, 0))) {
		t.Fatal("crash mark reported before EnableCrashes")
	}
	d.EnableCrashes()
	d.Crash(grid.Pt(1, 0))
	crashed := d.SlotAt(grid.Pt(1, 0))
	if !d.CrashedAt(grid.Pt(1, 0)) || !d.Crashed(crashed) || d.CrashedAt(grid.Pt(0, 0)) || d.CrashedAt(grid.Pt(5, 5)) {
		t.Fatal("CrashedAt does not match the single crash")
	}
	// The robot at (0,0) moves onto the crashed sleeper: it arrives first,
	// so the cell now holds a live robot.
	d.BeginRound()
	d.Arrive(grid.Pt(0, 0), grid.Pt(1, 0))
	d.Arrive(grid.Pt(2, 0), grid.Pt(2, 0))
	d.BeginSleep()
	if d.Sleep(grid.Pt(1, 0)) != 2 {
		t.Fatal("the sleeper was not merged onto")
	}
	d.Commit()
	if d.CrashedAt(grid.Pt(1, 0)) || d.SlotAt(grid.Pt(1, 0)) == crashed {
		t.Fatal("the crash mark survived its slot's merge")
	}
	d.Add(grid.Pt(3, 0))
	if d.CrashedAt(grid.Pt(3, 0)) {
		t.Fatal("an added robot starts crashed")
	}
	d.Crash(grid.Pt(3, 0))
	if n, b := d.LargestLiveComponent(); n != 2 || b != (grid.Rect{MinX: 1, MinY: 0, MaxX: 2, MaxY: 0}) {
		t.Fatalf("LargestLiveComponent = %d, %v", n, b)
	}
}

// TestSlotBlocksFollowRobots pins the slot index's allocation unit: a row
// of 64 robots across one chunk allocates one 8×8 slot block per eight
// robots in each layer it writes — 8, not the 64 blocks of a full chunk
// plane — and later rounds reuse them, while a filled chunk takes all 64
// distinct blocks of its layer.
func TestSlotBlocksFollowRobots(t *testing.T) {
	if got := NewDense(gen.Solid(tileSize, tileSize), false).SlotBlocks(); got != 64 {
		t.Fatalf("filled chunk: %d slot blocks, want 64", got)
	}
	d := NewDense(gen.Line(tileSize), false)
	if got := d.SlotBlocks(); got != 8 {
		t.Fatalf("after construction: %d slot blocks, want 8", got)
	}
	for round := 1; round <= 3; round++ {
		d.BeginRound()
		for _, p := range append([]grid.Point(nil), d.Cells()...) {
			d.Arrive(p, p)
		}
		d.BeginSleep()
		d.Commit()
		if got := d.SlotBlocks(); got != 16 {
			t.Fatalf("after round %d: %d slot blocks, want 8 in each layer", round, got)
		}
		if err := d.SlotsMismatch(); err != nil {
			t.Fatalf("after round %d: %v", round, err)
		}
	}
}
