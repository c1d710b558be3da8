package core

import (
	"math/rand"
	"strings"
	"testing"

	"gridgather/internal/fsync"
	"gridgather/internal/gen"
	"gridgather/internal/grid"
	"gridgather/internal/swarm"
	"gridgather/internal/view"
	"gridgather/internal/world"
)

// fromASCII builds a swarm from a picture ('#'/'X' robots). Bottom-left is
// (0,0); the top line is the highest y.
func fromASCII(pic string) *swarm.Swarm {
	lines := strings.Split(strings.Trim(pic, "\n"), "\n")
	s := swarm.New()
	h := len(lines)
	for row, line := range lines {
		y := h - 1 - row
		for x, ch := range line {
			if ch == '#' || ch == 'X' {
				s.Add(grid.Pt(x, y))
			}
		}
	}
	return s
}

// stepOnce runs exactly one FSYNC round of the default algorithm and
// returns the engine (checking connectivity).
func stepOnce(t *testing.T, s *swarm.Swarm) *fsync.Engine {
	t.Helper()
	eng := fsync.New(s, Default(), fsync.Config{CheckConnectivity: true, StrictViews: true})
	if err := eng.Step(); err != nil {
		t.Fatalf("step failed: %v\n%s", err, eng.Swarm())
	}
	return eng
}

// TestFigure2_Length1 reproduces the k=1 merge: "only a single robot hops
// onto a grid cell occupied by another robot."
func TestFigure2_Length1(t *testing.T) {
	// A tip exposed on three sides with its anchor below. The anchor row
	// extends to both sides so no perpendicular configuration overlaps the
	// tip (pure k=1, no Fig. 3b case).
	s := swarm.New(grid.Pt(0, 1), grid.Pt(-1, 0), grid.Pt(0, 0), grid.Pt(1, 0), grid.Pt(2, 0))
	v := analysisView(s, Defaults(), grid.Pt(0, 1), 0)
	d, ok := MergeMove(v, Defaults())
	if !ok {
		t.Fatal("tip robot must match a merge configuration")
	}
	if d != grid.South {
		t.Errorf("hop = %v, want South", d)
	}
	eng := stepOnce(t, s)
	if eng.Merges() < 1 {
		t.Error("no robot merged")
	}
	if !eng.Swarm().Connected() {
		t.Error("disconnected")
	}
}

// TestFigure2_LengthK verifies the general merge subboundary of length
// k > 1: the black robots hop simultaneously in the same direction onto the
// row with the grey anchors; at least one robot merges; connectivity holds.
func TestFigure2_LengthK(t *testing.T) {
	for k := 2; k <= 19; k++ {
		// Black row of length k at y=1 with grey anchors under both ends.
		s := swarm.New()
		for x := 0; x < k; x++ {
			s.Add(grid.Pt(x, 1))
		}
		s.Add(grid.Pt(0, 0))
		s.Add(grid.Pt(k-1, 0))
		// A base row keeps the two anchors connected without occupying the
		// landing row (y=0 stays free between the anchors). It extends one
		// cell beyond each end so the end columns do not form perpendicular
		// merge configurations of their own (this test isolates the single
		// k-configuration; overlaps are Figure 3's subject).
		for x := -1; x <= k; x++ {
			s.Add(grid.Pt(x, -1))
		}
		if !s.Connected() {
			t.Fatalf("k=%d: test shape disconnected", k)
		}
		p := Defaults()
		blacks := MergeBlacks(s, p)
		for x := 0; x < k; x++ {
			if d, ok := blacks[grid.Pt(x, 1)]; !ok || d != grid.South {
				t.Fatalf("k=%d: black (%d,1) hop=%v ok=%v", k, x, d, ok)
			}
		}
		before := s.Len()
		eng := stepOnce(t, s)
		if eng.Swarm().Len() >= before {
			t.Errorf("k=%d: no robot removed", k)
		}
		if !eng.Swarm().Connected() {
			t.Errorf("k=%d: disconnected", k)
		}
	}
}

// TestFigure2_WhiteCellsBlock verifies that occupied "white cells" veto the
// merge: a robot above the black row, beside its ends, or under its
// interior makes the configuration invalid (else connectivity might break).
func TestFigure2_WhiteCellsBlock(t *testing.T) {
	base := func() *swarm.Swarm {
		return fromASCII(`
####
#..#
`)
	}
	p := Defaults()
	// Baseline sanity: the 4-row on end anchors merges.
	if len(MergeBlacks(base(), p)) == 0 {
		t.Fatal("baseline configuration should merge")
	}
	// A robot above an interior black vetoes that black's row... and in
	// fact the whole configuration for every black that sees it.
	s := base()
	s.Add(grid.Pt(1, 2))
	for pos, d := range MergeBlacks(s, p) {
		if pos.Y == 1 && d == grid.South {
			t.Errorf("black %v still hops south despite robot above", pos)
		}
	}
	// A robot extending the row sideways shifts maximality — the
	// configuration with ends-clear changes.
	s2 := base()
	s2.Add(grid.Pt(4, 1)) // extend top row; now right end lacks an anchor below
	blacks := MergeBlacks(s2, p)
	if d, ok := blacks[grid.Pt(4, 1)]; ok && d == grid.South {
		// The extended row may still merge via the left anchor — that is
		// allowed; what must not happen is a hop that disconnects. Run a
		// round and check.
		_ = d
	}
	stepOnce(t, s2) // connectivity is asserted inside
	// A robot under an interior black (k ≥ 3) vetoes the merge.
	s3 := fromASCII(`
#####
#.#.#
`)
	for pos, d := range MergeBlacks(s3, p) {
		if pos.Y == 1 && d == grid.South && pos.X != 0 && pos.X != 4 {
			t.Errorf("interior black %v hops despite occupied interior landing", pos)
		}
	}
}

// TestFigure2_NoAnchorNoMerge: without any grey anchor no merge happens (a
// bare line's interior, for example, must not hop sideways).
func TestFigure2_NoAnchorNoMerge(t *testing.T) {
	s := swarm.New()
	for x := 0; x < 8; x++ {
		s.Add(grid.Pt(x, 0))
	}
	blacks := MergeBlacks(s, Defaults())
	// The two end robots merge inward (k=1 with the neighbor as anchor);
	// interior robots must not move.
	for pos := range blacks {
		if pos != grid.Pt(0, 0) && pos != grid.Pt(7, 0) {
			t.Errorf("interior line robot %v matched a merge", pos)
		}
	}
}

// TestFigure3a_OpposingConfigurationsDontSwap: two opposing merge
// configurations facing the same landing row collide and merge rather than
// swapping through each other (the landing-interior-empty white cells rule
// out pass-through livelocks).
func TestFigure3a_OpposingConfigurations(t *testing.T) {
	// Two vertical bars bridged at top: both staple toward the middle
	// column, landing on the same cells — they must merge, not swap.
	s := fromASCII(`
###
#.#
#.#
#.#
`)
	before := s.Len()
	eng := stepOnce(t, s)
	if eng.Swarm().Len() >= before {
		t.Error("opposing configurations did not merge")
	}
	if !eng.Swarm().Connected() {
		t.Error("disconnected")
	}
	// And crucially: the result is strictly smaller, no livelock. Run to
	// completion.
	g := Default()
	eng2 := fsync.New(s, g, fsync.Config{MaxRounds: 500, CheckConnectivity: true, StrictViews: true})
	res := eng2.Run()
	if res.Err != nil || !res.Gathered {
		t.Fatalf("did not gather: %+v", res)
	}
}

// TestFigure3b_DiagonalHop: a robot that is black in two perpendicular
// configurations performs the diagonal hop, and the three involved robots
// end on the same cell ("r, a, b occupy the same grid cell and a, b are
// removed without breaking the connectivity").
func TestFigure3b_DiagonalHop(t *testing.T) {
	// A small hollow square: every wall staples toward the hole, the
	// corners belong to two perpendicular configurations at once.
	s := fromASCII(`
####
#..#
#..#
####
`)
	g := Default()
	eng := fsync.New(s, g, fsync.Config{CheckConnectivity: true, StrictViews: true})
	if err := eng.Step(); err != nil {
		t.Fatalf("step: %v", err)
	}
	if g.Stats().DiagonalHops == 0 {
		t.Error("no diagonal hop executed at the corners")
	}
	if eng.Merges() == 0 {
		t.Error("no merges from the overlapping configurations")
	}
	if !eng.Swarm().Connected() {
		t.Error("disconnected")
	}
}

// TestMergePreservesConnectivityOnCorpus applies a single synchronized
// merge round to randomized swarms and asserts the global safety property:
// connectivity never breaks and the population never grows.
func TestMergePreservesConnectivityOnCorpus(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		s := randomConnected(60+int(seed%5)*17, seed)
		before := s.Len()
		eng := fsync.New(s, Default(), fsync.Config{CheckConnectivity: true, StrictViews: true})
		if err := eng.Step(); err != nil {
			t.Fatalf("seed %d: %v\nbefore:\n%s\nafter:\n%s", seed, err, s, eng.Swarm())
		}
		if eng.Swarm().Len() > before {
			t.Fatalf("seed %d: robots increased", seed)
		}
	}
}

// refMergeMove and refBlackIn are the merge rule as first written: the run
// is scanned before any exposure test. They are the oracle for the
// production MergeMove, whose tests are reordered so that non-candidates
// exit early; both must return the same (hop, ok) on every view.
func refMergeMove(v *view.View, p Params) (grid.Point, bool) {
	var dirs []grid.Point
	for _, d := range grid.Axis4 {
		if refBlackIn(v, d, p) {
			dirs = append(dirs, d)
		}
	}
	switch len(dirs) {
	case 1:
		return dirs[0], true
	case 2:
		if sum := dirs[0].Add(dirs[1]); sum != grid.Zero {
			// Perpendicular overlap: diagonal hop (Fig. 3b).
			return sum, true
		}
	}
	// Zero matches, two opposing matches, or more: no safe single hop.
	return grid.Zero, false
}

func refBlackIn(v *view.View, d grid.Point, p Params) bool {
	axis := d.PerpCW() // the line axis of the black subboundary

	// Extent of the straight run of robots through the origin along ±axis.
	neg := 0
	for v.Occ(axis.Scale(-(neg + 1))) {
		neg++
		if neg >= p.MergeMax {
			return false // too long to verify within the radius
		}
	}
	pos := 0
	for v.Occ(axis.Scale(pos + 1)) {
		pos++
		if neg+pos+1 > p.MergeMax {
			return false
		}
	}
	// Maximality holds by loop exit: the cells extending the run at both
	// ends are free.

	// Far side (outside) must be fully exposed.
	for m := -neg; m <= pos; m++ {
		if v.Occ(axis.Scale(m).Sub(d)) {
			return false
		}
	}
	// Interior landing cells must be free.
	for m := -neg + 1; m <= pos-1; m++ {
		if v.Occ(axis.Scale(m).Add(d)) {
			return false
		}
	}
	// At least one end landing cell must hold a grey anchor.
	landA := axis.Scale(-neg).Add(d)
	landB := axis.Scale(pos).Add(d)
	return v.Occ(landA) || v.Occ(landB)
}

// checkMergeAgainstReference compares MergeMove with the reference for the
// robot at origin in w, once on a clean view and once with the noise flip
// at off (skipped when off is zero). The production rule reads through an
// unchecked view (the engine's fast path), the reference through a checked
// one, so the comparison also covers both view read paths. It returns
// whether the clean view matched a merge configuration.
func checkMergeAgainstReference(t *testing.T, w *world.Dense, origin, off grid.Point, round int) bool {
	t.Helper()
	p := Defaults()
	fast := view.New(view.Config{Radius: p.Radius, Dense: w}, origin, round)
	checked := view.New(view.Config{Radius: p.Radius, Checked: true, Dense: w}, origin, round)
	gd, gok := MergeMove(fast, p)
	wd, wok := refMergeMove(checked, p)
	if gd != wd || gok != wok {
		t.Fatalf("robot %v round %d: MergeMove = (%v, %v), reference (%v, %v)", origin, round, gd, gok, wd, wok)
	}
	if off != grid.Zero {
		fast.SetNoise(off)
		checked.SetNoise(off)
		nd, nok := MergeMove(fast, p)
		rd, rok := refMergeMove(checked, p)
		if nd != rd || nok != rok {
			t.Fatalf("robot %v round %d noise %v: MergeMove = (%v, %v), reference (%v, %v)",
				origin, round, off, nd, nok, rd, rok)
		}
	}
	return gok
}

// mergeAligns are the in-chunk coordinates (mod 64) the merge tests put
// robots at: the chunk corner and its neighbour, the middle, and the far
// edge. A robot off the chunk edges takes the single-tile 3×3 read, one
// on an edge the per-cell seam read, and runs and segments then start
// anywhere in a tile line.
var mergeAligns = [5]int{0, 1, 31, 62, 63}

// TestMergeMoveMatchesReference gathers every seeded-catalog swarm and
// checks, for every robot of every round, that MergeMove agrees with the
// reference rule, with and without a sensor noise flip in the view. Each
// swarm runs at several translations, which put its lowest-leftmost robot
// at in-chunk coordinates drawn from mergeAligns.
func TestMergeMoveMatchesReference(t *testing.T) {
	noise := []grid.Point{grid.Zero, grid.North, grid.Pt(1, 1), grid.Pt(-2, 0), grid.Pt(0, -3), grid.Pt(5, -4)}
	for _, wl := range gen.SeededCatalog() {
		t.Run(wl.Name, func(t *testing.T) {
			base := wl.Build(120, 42)
			b := base.Bounds()
			matched := 0
			for k, ax := range mergeAligns {
				ay := mergeAligns[(k+2)%len(mergeAligns)]
				shift := grid.Pt(ax-b.MinX+64*(k-2), ay-b.MinY-64*(k%2))
				s := swarm.New()
				for _, c := range base.Cells() {
					s.Add(c.Add(shift))
				}
				eng := fsync.New(s, Default(), fsync.Config{})
				for r := 0; r < 60*s.Len() && !eng.Gathered(); r++ {
					for i, c := range eng.Swarm().Cells() {
						if checkMergeAgainstReference(t, eng.World(), c, noise[i%len(noise)], eng.Round()) {
							matched++
						}
					}
					if err := eng.Step(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if matched == 0 {
				t.Error("no robot matched a merge configuration: the comparison is vacuous")
			}
		})
	}
}

// fuzzWindow lists the cells of a radius-20 L1 window except its center,
// in a fixed order; bit i of a fuzz input occupies fuzzWindow[i].
var fuzzWindow = func() []grid.Point {
	r := Defaults().Radius
	var out []grid.Point
	for y := -r; y <= r; y++ {
		for x := -r; x <= r; x++ {
			if p := grid.Pt(x, y); p != grid.Zero && p.L1() <= r {
				out = append(out, p)
			}
		}
	}
	return out
}()

// windowBits encodes the occupied cells of s within the window around c.
func windowBits(s *swarm.Swarm, c grid.Point) []byte {
	b := make([]byte, (len(fuzzWindow)+7)/8)
	for i, rel := range fuzzWindow {
		if s.Has(c.Add(rel)) {
			b[i/8] |= 1 << (i % 8)
		}
	}
	return b
}

// FuzzMergeMove checks MergeMove against the reference rule on arbitrary
// radius-20 windows around an occupied origin at (ox, oy), with and
// without a noise flip at (nx, ny). The seed corpus holds windows cut
// around merging and non-merging robots of catalog swarms, a solid
// interior, and random windows of several densities, with the origin at
// in-chunk coordinates drawn from mergeAligns on both sides of zero.
func FuzzMergeMove(f *testing.F) {
	seeds := 0
	origin := func() (int16, int16) {
		k := seeds
		seeds++
		ox, oy := mergeAligns[k%5], mergeAligns[(k/5)%5]
		if k%2 == 1 {
			ox, oy = ox-64, oy-128
		}
		return int16(ox), int16(oy)
	}
	for _, wl := range gen.SeededCatalog() {
		s := wl.Build(60, 7)
		blacks := MergeBlacks(s, Defaults())
		for i, c := range s.Cells() {
			if _, ok := blacks[c]; ok || i%17 == 0 {
				ox, oy := origin()
				f.Add(windowBits(s, c), int8(i%5-2), int8(i%3-1), ox, oy)
			}
		}
	}
	for range mergeAligns {
		ox, oy := origin()
		f.Add(windowBits(solid(41, 41), grid.Pt(20, 20)), int8(0), int8(1), ox, oy)
	}
	rng := rand.New(rand.NewSource(1))
	for _, density := range []float64{0.1, 0.3, 0.5, 0.8} {
		b := make([]byte, (len(fuzzWindow)+7)/8)
		for i := range fuzzWindow {
			if rng.Float64() < density {
				b[i/8] |= 1 << (i % 8)
			}
		}
		ox, oy := origin()
		f.Add(b, int8(rng.Intn(7)-3), int8(rng.Intn(7)-3), ox, oy)
	}
	r := Defaults().Radius
	f.Fuzz(func(t *testing.T, bits []byte, nx, ny int8, ox, oy int16) {
		o := grid.Pt(int(ox), int(oy))
		s := swarm.New(o)
		for i, rel := range fuzzWindow {
			if i/8 < len(bits) && bits[i/8]&(1<<(i%8)) != 0 {
				s.Add(o.Add(rel))
			}
		}
		off := grid.Pt(int(nx)%(r+1), int(ny)%(r+1))
		if off.L1() > r {
			off = grid.Pt(off.X/2, off.Y/2)
		}
		checkMergeAgainstReference(t, world.NewDense(s.Cells(), false), o, off, 0)
	})
}
