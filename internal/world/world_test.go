// Property and differential tests for the dense backend's occupancy
// semantics: a world built from any cell set — including negative
// coordinates, cells straddling chunk boundaries, and far-apart cells that
// stretch the chunk table — and driven through the round protocol, even
// past the chunk table's margin, must agree with the map-backed swarm
// oracle on Has/Len/Bounds/Cells/Connected/Gathered.
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
// plane holds at its cell, with no slot repeated, and that after the
// Connected query exactly the live tiles carry connectivity state.
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
	if err := d.ConnMismatch(); err != nil {
		t.Fatal(err)
	}
	if got, want := d.Gathered(), s.Gathered(); got != want {
		t.Fatalf("Gathered: dense %v, oracle %v", got, want)
	}
}

// stepMoves drives one round of the protocol in which the robot on each
// key of moves goes to its value (merging if another robot lands there
// too) and every other robot stays, all of them activated.
func stepMoves(d *Dense, moves map[grid.Point]grid.Point) {
	for _, p := range d.Cells() {
		if dst, ok := moves[p]; ok {
			d.Arrive(p, dst)
		}
	}
	d.Land(nil)
	d.Commit()
}

// applyOps replays an op stream (coordinate pairs with an add/remove bit)
// on a swarm oracle and, every seventh step and at the end, builds a
// fresh Dense from the oracle's cell set and compares the two.
func applyOps(t *testing.T, ops []struct {
	p   grid.Point
	add bool
}, probes []grid.Point) {
	t.Helper()
	s := swarm.New()
	for i, op := range ops {
		if op.add {
			s.Add(op.p)
		} else {
			s.Remove(op.p)
		}
		if i%7 == 0 || i == len(ops)-1 {
			checkAgainstOracle(t, NewDense(s.Cells(), false), s, probes)
		}
	}
}

// TestDenseOccupancyProperty builds worlds from the cell sets of seeded
// random add/remove sequences over a coordinate range that crosses chunk
// boundaries in all four quadrants (chunk size 64: the range [-130, 130]
// spans five chunk columns including the negative-to-positive seam).
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

// TestDenseFarApartGrowth builds worlds from cell sets that grow, one
// cell at a time, to cells tens of thousands of cells apart — each new
// cell stretches the chunk table the world is built over — and shrink
// again, and checks the observables match the oracle at every step,
// including the multi-component Connected answer.
func TestDenseFarApartGrowth(t *testing.T) {
	pts := []grid.Point{
		grid.Pt(0, 0), grid.Pt(1, 0),
		grid.Pt(20000, 3), grid.Pt(20001, 3),
		grid.Pt(-15000, -7), grid.Pt(-15000, -8),
		grid.Pt(5, 30000), grid.Pt(-3, -25000),
	}
	s := swarm.New()
	for _, p := range pts {
		s.Add(p)
		checkAgainstOracle(t, NewDense(s.Cells(), false), s, pts)
	}
	if NewDense(s.Cells(), false).Connected() {
		t.Fatal("far-apart cells reported connected")
	}
	for _, p := range pts[:4] {
		s.Remove(p)
		checkAgainstOracle(t, NewDense(s.Cells(), false), s, pts)
	}
}

// TestArrivalsGrowChunkTable walks a small swarm through the round
// protocol, one diagonal step per round, north-east past the chunk
// table's one-chunk margin and then south-west past the opposite margin,
// so arrivals land outside the table and grow it — the only way the table
// grows. After every round the observables must match the oracle.
func TestArrivalsGrowChunkTable(t *testing.T) {
	start := []grid.Point{grid.Pt(0, 0), grid.Pt(1, 0), grid.Pt(1, 1)}
	d := NewDense(swarm.New(start...).Cells(), false)
	cols, rows := d.cols, d.rows
	pos := append([]grid.Point(nil), start...)
	walk := func(dir grid.Point, rounds int) {
		t.Helper()
		for r := 0; r < rounds; r++ {
			moves := make(map[grid.Point]grid.Point, len(pos))
			for i, p := range pos {
				moves[p] = p.Add(dir)
				pos[i] = p.Add(dir)
			}
			stepMoves(d, moves)
			checkAgainstOracle(t, d, swarm.New(pos...), append(pos, pos[0].Sub(dir)))
		}
	}
	walk(grid.NorthEast, 2*tileSize+8) // past the east and north margins
	if d.cols <= cols || d.rows <= rows {
		t.Fatalf("the chunk table did not grow north-east: %d×%d, was %d×%d", d.cols, d.rows, cols, rows)
	}
	cols, rows = d.cols, d.rows
	walk(grid.SouthWest, 4*tileSize+16) // back, then past the west and south margins
	if d.cols <= cols || d.rows <= rows {
		t.Fatalf("the chunk table did not grow south-west: %d×%d, was %d×%d", d.cols, d.rows, cols, rows)
	}
}

// TestNewDenseRejectsUnsortedCells pins NewDense's precondition: a cell
// list out of canonical order, or with a repeated cell, panics.
func TestNewDenseRejectsUnsortedCells(t *testing.T) {
	for _, cells := range [][]grid.Point{
		{grid.Pt(1, 0), grid.Pt(0, 0)},
		{grid.Pt(0, 1), grid.Pt(5, 0)},
		{grid.Pt(0, 0), grid.Pt(0, 0)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDense(%v) did not panic", cells)
				}
			}()
			NewDense(cells, false)
		}()
	}
}

// TestDenseConstructionMatchesWorkloads builds Dense from every seeded
// workload and checks the full observable surface, plus slot assignment in
// sorted cell order.
func TestDenseConstructionMatchesWorkloads(t *testing.T) {
	for _, w := range gen.SeededCatalog() {
		t.Run(w.Name, func(t *testing.T) {
			s := w.Build(80, 7)
			d := NewDense(s.Cells(), false)
			checkAgainstOracle(t, d, s, s.Cells())
			for i, slot := range d.Slots() {
				if slot != int32(i) {
					t.Fatalf("initial slot %d = %d, want index order", i, slot)
				}
			}
		})
	}
}

// TestDenseClocksDisabled pins the clocks-off contract: ClockAt and Clock
// are 0 and TickClock a no-op.
func TestDenseClocksDisabled(t *testing.T) {
	d := NewDense([]grid.Point{grid.Pt(0, 0)}, false)
	d.TickClock(0)
	d.Arrive(grid.Pt(0, 0), grid.Pt(0, 0))
	d.Land(nil)
	d.SetArrivalState(grid.Pt(0, 0), robot.State{})
	d.Commit()
	if got := d.ClockAt(grid.Pt(0, 0)); got != 0 {
		t.Fatalf("ClockAt with clocks disabled = %d", got)
	}
	if got := d.Clock(0); got != 0 {
		t.Fatalf("Clock with clocks disabled = %d", got)
	}
}

// Crash marks belong to slots: Crash marks a robot, the mark stays with
// the robot as long as it is the cell's first arrival, and dies with its
// slot when it is merged onto. A crashed robot sleeps even where the
// activation mask names it, so a mover landing on it survives whichever
// cell it comes from.
func TestCrashMarks(t *testing.T) {
	d := NewDense([]grid.Point{grid.Pt(0, 0), grid.Pt(1, 0), grid.Pt(2, 0)}, false)
	if d.CrashedAt(grid.Pt(1, 0)) || d.Crashed(d.SlotAt(grid.Pt(1, 0))) {
		t.Fatal("crash mark reported before EnableCrashes")
	}
	d.EnableCrashes()
	d.Crash(grid.Pt(1, 0))
	crashed := d.SlotAt(grid.Pt(1, 0))
	if !d.CrashedAt(grid.Pt(1, 0)) || !d.Crashed(crashed) || d.CrashedAt(grid.Pt(0, 0)) || d.CrashedAt(grid.Pt(5, 5)) {
		t.Fatal("CrashedAt does not match the single crash")
	}
	// The robot at (2,0) moves onto the crashed sleeper: activated robots
	// arrive before sleepers, so the cell now holds a live robot. The mask
	// activates all three; the crash mark alone puts (1,0) to sleep.
	d.Arrive(grid.Pt(2, 0), grid.Pt(1, 0))
	if lost := d.Land([]bool{true, true, true}); lost != 1 {
		t.Fatalf("Land removed %d crashed robots, want 1", lost)
	}
	if d.ArrivalCount(grid.Pt(1, 0)) != 2 {
		t.Fatal("the sleeper was not merged onto")
	}
	d.Commit()
	if d.CrashedAt(grid.Pt(1, 0)) || d.SlotAt(grid.Pt(1, 0)) == crashed {
		t.Fatal("the crash mark survived its slot's merge")
	}
	if n, b := d.LargestLiveComponent(); n != 2 || b != (grid.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 0}) {
		t.Fatalf("LargestLiveComponent = %d, %v", n, b)
	}
}

// TestSlotBlocksFollowRobots pins the slot index's allocation unit: a row
// of 64 robots across one chunk allocates one 8×8 slot block per eight
// robots — 8, not the 64 blocks of a full chunk plane — and rounds in
// which neighbouring robots swap cells reuse them, while a filled chunk
// takes all 64 distinct blocks.
func TestSlotBlocksFollowRobots(t *testing.T) {
	if got := NewDense(gen.Solid(tileSize, tileSize).Cells(), false).SlotBlocks(); got != 64 {
		t.Fatalf("filled chunk: %d slot blocks, want 64", got)
	}
	d := NewDense(gen.Line(tileSize).Cells(), false)
	if got := d.SlotBlocks(); got != 8 {
		t.Fatalf("after construction: %d slot blocks, want 8", got)
	}
	for round := 1; round <= 3; round++ {
		for _, p := range append([]grid.Point(nil), d.Cells()...) {
			step := grid.East
			if p.X%2 == 1 {
				step = grid.West
			}
			d.Arrive(p, p.Add(step))
		}
		d.Land(nil)
		d.Commit()
		if got := d.SlotBlocks(); got != 8 {
			t.Fatalf("after round %d: %d slot blocks, want 8", round, got)
		}
		if err := d.SlotsMismatch(); err != nil {
			t.Fatalf("after round %d: %v", round, err)
		}
	}
}
