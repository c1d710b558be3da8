package gen

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"gridgather/internal/grid"
	"gridgather/internal/swarm"
)

func TestAllGeneratorsConnected(t *testing.T) {
	shapes := map[string]interface{ Len() int }{}
	_ = shapes
	cases := []struct {
		name string
		n    int
		len  int // expected robot count, -1 to skip
	}{
		{"line", 0, -1},
	}
	_ = cases

	check := func(name string, s interface {
		Connected() bool
		Len() int
	}) {
		t.Helper()
		if s.Len() == 0 {
			t.Errorf("%s: empty", name)
		}
		if !s.Connected() {
			t.Errorf("%s: not connected", name)
		}
	}

	check("line", Line(17))
	check("solid", Solid(6, 4))
	check("hollow", Hollow(8, 5))
	check("staircase1", Staircase(23, 1))
	check("staircase2", Staircase(23, 2))
	check("plus", Plus(7))
	check("comb", Comb(15, 4))
	check("spiral", Spiral(20))
	check("table", Table(25, 4))
	check("h", HShape(9, 5))
	check("diamond", Diamond(5))
	check("tree", RandomTree(120, 7))
	check("blob", RandomBlob(120, 7))
	check("walk", RandomWalk(120, 7))
	check("clusters", RandomClusters(200, 4, 7))
	check("clusters-tiny", RandomClusters(9, 4, 7))
	check("antcolony", AntColony(120, 7))
	check("antcolony-tiny", AntColony(3, 7))
	check("sierpinski", Sierpinski(3))
}

func TestGeneratorSizes(t *testing.T) {
	if got := Line(12).Len(); got != 12 {
		t.Errorf("line len = %d", got)
	}
	if got := Solid(5, 4).Len(); got != 20 {
		t.Errorf("solid len = %d", got)
	}
	if got := Hollow(6, 5).Len(); got != 2*6+2*3 {
		t.Errorf("hollow len = %d", got)
	}
	if got := Staircase(31, 1).Len(); got != 31 {
		t.Errorf("staircase len = %d", got)
	}
	if got := Plus(4).Len(); got != 17 {
		t.Errorf("plus len = %d", got)
	}
	if got := RandomTree(77, 3).Len(); got != 77 {
		t.Errorf("tree len = %d", got)
	}
	if got := RandomBlob(77, 3).Len(); got != 77 {
		t.Errorf("blob len = %d", got)
	}
	if got := RandomWalk(77, 3).Len(); got != 77 {
		t.Errorf("walk len = %d", got)
	}
	if got := Diamond(3).Len(); got != 25 {
		t.Errorf("diamond len = %d", got)
	}
	if got := RandomClusters(300, 4, 3).Len(); got != 300 {
		t.Errorf("clusters len = %d", got)
	}
	if got := AntColony(300, 3).Len(); got != 300 {
		t.Errorf("antcolony len = %d", got)
	}
	// The carpet holds exactly 8^depth robots.
	if got := Sierpinski(2).Len(); got != 64 {
		t.Errorf("sierpinski(2) len = %d", got)
	}
	if got := Sierpinski(3).Len(); got != 512 {
		t.Errorf("sierpinski(3) len = %d", got)
	}
}

func TestSierpinskiShape(t *testing.T) {
	s := Sierpinski(2)
	// The center ninth is removed at both recursion levels.
	if s.Has(grid.Pt(4, 4)) {
		t.Error("center of the carpet should be empty")
	}
	if s.Has(grid.Pt(1, 1)) {
		t.Error("center of the first sub-square should be empty")
	}
	if !s.Has(grid.Pt(0, 0)) || !s.Has(grid.Pt(8, 8)) {
		t.Error("carpet corners missing")
	}
	if b := s.Bounds(); b.MaxX != 8 || b.MaxY != 8 {
		t.Errorf("carpet bounds = %v, want 9x9", b)
	}
}

func TestRandomClustersDeterministic(t *testing.T) {
	a := RandomClusters(250, 5, 11)
	b := RandomClusters(250, 5, 11)
	if !a.Equal(b) {
		t.Error("RandomClusters not deterministic for equal seed")
	}
	if a.Equal(RandomClusters(250, 5, 12)) {
		t.Error("different seeds produced identical cluster swarms (suspicious)")
	}
}

func TestRandomGeneratorsDeterministic(t *testing.T) {
	a := RandomTree(64, 11)
	b := RandomTree(64, 11)
	if !a.Equal(b) {
		t.Error("RandomTree not deterministic for equal seed")
	}
	c := RandomBlob(64, 11)
	d := RandomBlob(64, 11)
	if !c.Equal(d) {
		t.Error("RandomBlob not deterministic")
	}
	if a.Equal(RandomTree(64, 12)) {
		t.Error("different seeds produced identical trees (suspicious)")
	}
	e := AntColony(200, 11)
	f := AntColony(200, 11)
	if !e.Equal(f) {
		t.Error("AntColony not deterministic for equal seed")
	}
	if e.Equal(AntColony(200, 12)) {
		t.Error("different seeds produced identical colonies (suspicious)")
	}
}

func TestTableShape(t *testing.T) {
	s := Table(10, 3)
	// Top plateau at y=3 spanning x=0..9, legs at x=0 and x=9.
	for x := 0; x < 10; x++ {
		if !s.Has(grid.Pt(x, 3)) {
			t.Errorf("missing plateau cell (%d,3)", x)
		}
	}
	if !s.Has(grid.Pt(0, 0)) || !s.Has(grid.Pt(9, 0)) {
		t.Error("missing leg feet")
	}
	if s.Has(grid.Pt(5, 0)) {
		t.Error("unexpected cell under plateau middle")
	}
}

func TestCatalogBuildsConnectedSwarms(t *testing.T) {
	for _, w := range SeededCatalog() {
		for _, n := range []int{16, 60} {
			s := w.Build(n, 42)
			if s.Len() == 0 || !s.Connected() {
				t.Errorf("catalog %s(n=%d): bad swarm", w.Name, n)
			}
		}
	}
}

func TestHollowHasHole(t *testing.T) {
	if holes := Hollow(6, 6).Holes(); len(holes) != 1 {
		t.Errorf("hollow holes = %d", len(holes))
	}
}

func TestThickRing(t *testing.T) {
	s := ThickRing(10, 8, 2)
	if !s.Connected() {
		t.Fatal("thick ring disconnected")
	}
	// Hole is (10-4)x(8-4) = 6x4: total = 80 - 24.
	if got := s.Len(); got != 80-24 {
		t.Errorf("len = %d, want 56", got)
	}
	if holes := s.Holes(); len(holes) != 1 || len(holes[0]) != 24 {
		t.Errorf("holes = %v", holes)
	}
}

func TestDiamondRing(t *testing.T) {
	s := DiamondRing(5)
	if !s.Connected() {
		t.Fatal("diamond ring disconnected")
	}
	// Two L1 shells of radius r and r-1 hold 4r + 4(r-1) cells.
	if got := s.Len(); got != 4*5+4*4 {
		t.Errorf("len = %d, want 36", got)
	}
	if holes := s.Holes(); len(holes) != 1 {
		t.Errorf("holes = %d, want 1", len(holes))
	}
	if !s.Has(grid.Pt(5, 0)) || s.Has(grid.Pt(0, 0)) {
		t.Error("shell membership wrong")
	}
}

// Lookup answers every SeededCatalog family by name and nothing else.
func TestLookup(t *testing.T) {
	for _, w := range SeededCatalog() {
		got, ok := Lookup(w.Name)
		if !ok || got.Name != w.Name || got.Random != w.Random {
			t.Fatalf("Lookup(%q) = %+v, %v", w.Name, got, ok)
		}
		if a, b := got.Build(50, 7), w.Build(50, 7); a.Len() != b.Len() {
			t.Fatalf("Lookup(%q) builds %d robots, the catalog %d", w.Name, a.Len(), b.Len())
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal(`Lookup("nope") found a family`)
	}
}

// refRandomBlob is RandomBlob as first written: it rebuilds and sorts the
// frontier from a map and recounts every frontier cell's occupied
// neighbours each step. It is the reference the incremental frontier must
// match cell for cell.
func refRandomBlob(n int, seed int64) *swarm.Swarm {
	rng := rand.New(rand.NewSource(seed))
	s := swarm.New(grid.Pt(0, 0))
	frontier := map[grid.Point]struct{}{}
	addFrontier := func(p grid.Point) {
		for _, q := range grid.Neighbors4(p) {
			if !s.Has(q) {
				frontier[q] = struct{}{}
			}
		}
	}
	addFrontier(grid.Pt(0, 0))
	var keys []grid.Point
	for s.Len() < n {
		keys = keys[:0]
		for q := range frontier {
			keys = append(keys, q)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
		var best grid.Point
		bestScore := -1.0
		for _, q := range keys {
			deg := 0
			for _, r := range grid.Neighbors4(q) {
				if s.Has(r) {
					deg++
				}
			}
			score := float64(deg*deg) * (0.25 + rng.Float64())
			if score > bestScore {
				bestScore = score
				best = q
			}
		}
		s.Add(best)
		delete(frontier, best)
		addFrontier(best)
	}
	return s
}

// refRandomWalk is RandomWalk as first written: every stall restart sorts
// the whole swarm to pick its cell. It is the reference the merged cell
// list must match cell for cell.
func refRandomWalk(n int, seed int64) *swarm.Swarm {
	rng := rand.New(rand.NewSource(seed))
	s := swarm.New(grid.Pt(0, 0))
	cur := grid.Pt(0, 0)
	stall := 0
	for s.Len() < n {
		d := grid.Axis4[rng.Intn(4)]
		q := cur.Add(d)
		if s.Has(q) {
			cur = q
			stall++
			if stall > 64 {
				cells := s.Cells()
				cur = cells[rng.Intn(len(cells))]
				stall = 0
			}
			continue
		}
		s.Add(q)
		cur = q
		stall = 0
	}
	return s
}

// refHollow is Hollow as first written, a scan of the whole w×h box.
func refHollow(w, h int) *swarm.Swarm {
	s := swarm.New()
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			if x == 0 || y == 0 || x == w-1 || y == h-1 {
				s.Add(grid.Pt(x, y))
			}
		}
	}
	return s
}

func sameCells(t *testing.T, name string, got, want *swarm.Swarm) {
	t.Helper()
	g, w := got.Cells(), want.Cells()
	if len(g) != len(w) {
		t.Fatalf("%s: %d cells, reference %d", name, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: cell %d is %v, reference %v", name, i, g[i], w[i])
		}
	}
}

// TestRandomBlobMatchesReference holds the incremental frontier to the
// reference generator: the same cells for every (n, seed) pair.
func TestRandomBlobMatchesReference(t *testing.T) {
	for _, c := range []struct {
		n    int
		seed int64
	}{{0, 1}, {1, 2}, {2, 5}, {77, 3}, {300, 11}, {500, -9}, {1200, 7}, {4096, 1}} {
		sameCells(t, fmt.Sprintf("RandomBlob(%d, %d)", c.n, c.seed), RandomBlob(c.n, c.seed), refRandomBlob(c.n, c.seed))
	}
}

// TestRandomWalkMatchesReference holds the merged restart list to the
// reference generator: the same cells for every (n, seed) pair.
func TestRandomWalkMatchesReference(t *testing.T) {
	for _, c := range []struct {
		n    int
		seed int64
	}{{0, 1}, {1, 2}, {2, 5}, {77, 3}, {300, 11}, {500, -9}, {1200, 7}, {4096, 1}, {8192, 42}} {
		sameCells(t, fmt.Sprintf("RandomWalk(%d, %d)", c.n, c.seed), RandomWalk(c.n, c.seed), refRandomWalk(c.n, c.seed))
	}
}

// TestHollowMatchesReference holds the side-by-side Hollow to the box scan
// over degenerate and ordinary shapes.
func TestHollowMatchesReference(t *testing.T) {
	for _, c := range [][2]int{{0, 0}, {0, 3}, {3, -1}, {1, 1}, {1, 5}, {5, 1}, {2, 2}, {2, 3}, {6, 5}, {64, 64}, {130, 7}} {
		sameCells(t, fmt.Sprintf("Hollow(%d, %d)", c[0], c[1]), Hollow(c[0], c[1]), refHollow(c[0], c[1]))
	}
}
