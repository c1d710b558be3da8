package world

// Tests for the incremental connectivity layer (connincr.go). The contract
// under test is differential: Connected through the incremental path must
// equal ConnectedBFS (the scratch-BFS oracle) and the swarm oracle after
// every round — cold start, warm queries, single-robot moves and merges,
// chunk eviction and snapshot restore alike. The table cases pin
// the seam union-find edge cases directly: merges across east and north
// borders, diagonal-only contact (NOT connected under 4-connectivity),
// four-corner meetings, and splits that must be re-detected after the
// per-query union-find rebuild.

import (
	"testing"

	"gridgather/internal/gen"
	"gridgather/internal/grid"
	"gridgather/internal/swarm"
)

// connWorld builds a dense world over the given cells.
func connWorld(cells ...grid.Point) *Dense {
	return NewDense(swarm.New(cells...).Cells(), false)
}

// checkConnAllPaths asserts the incremental answer, the BFS oracle and the
// swarm-free expectation agree, querying the incremental path repeatedly so
// both the cold (fallback+rebuild) and warm paths run.
func checkConnAllPaths(t *testing.T, d *Dense, want bool) {
	t.Helper()
	if got := d.ConnectedBFS(); got != want {
		t.Fatalf("ConnectedBFS = %v, want %v", got, want)
	}
	for i := 0; i < 3; i++ {
		if got := d.Connected(); got != want {
			t.Fatalf("Connected (query %d) = %v, want %v", i, got, want)
		}
	}
}

// TestConnIncrSeamTable pins the chunk-seam union-find: every case is a
// hand-placed pattern around chunk borders (chunks are 64×64, so x or y in
// {63, 64} sits on a seam; negative coordinates exercise the floor-divided
// chunk grid).
func TestConnIncrSeamTable(t *testing.T) {
	cases := []struct {
		name  string
		cells []grid.Point
		want  bool
	}{
		{"east-seam pair", []grid.Point{grid.Pt(63, 5), grid.Pt(64, 5)}, true},
		{"east-seam diagonal only", []grid.Point{grid.Pt(63, 5), grid.Pt(64, 6)}, false},
		{"north-seam pair", []grid.Point{grid.Pt(5, 63), grid.Pt(5, 64)}, true},
		{"north-seam diagonal only", []grid.Point{grid.Pt(5, 63), grid.Pt(6, 64)}, false},
		{"four-corner diagonal only", []grid.Point{grid.Pt(63, 63), grid.Pt(64, 64)}, false},
		{"four-corner anti-diagonal only", []grid.Point{grid.Pt(64, 63), grid.Pt(63, 64)}, false},
		{"four-corner full square", []grid.Point{
			grid.Pt(63, 63), grid.Pt(64, 63), grid.Pt(63, 64), grid.Pt(64, 64)}, true},
		{"negative seam pair", []grid.Point{grid.Pt(-1, 0), grid.Pt(0, 0)}, true},
		{"column through three chunks", func() []grid.Point {
			var cs []grid.Point
			for y := 60; y <= 130; y++ {
				cs = append(cs, grid.Pt(10, y))
			}
			return cs
		}(), true},
		{"row through three chunks", func() []grid.Point {
			var cs []grid.Point
			for x := -70; x <= 70; x++ {
				cs = append(cs, grid.Pt(x, 3))
			}
			return cs
		}(), true},
		{"snake around a chunk corner", []grid.Point{
			grid.Pt(62, 63), grid.Pt(63, 63), grid.Pt(63, 64), grid.Pt(64, 64), grid.Pt(64, 65)}, true},
		{"two blocks two chunks apart", []grid.Point{
			grid.Pt(5, 5), grid.Pt(6, 5), grid.Pt(200, 5), grid.Pt(201, 5)}, false},
		{"same chunk two components", []grid.Point{
			grid.Pt(10, 10), grid.Pt(11, 10), grid.Pt(30, 30), grid.Pt(31, 30)}, false},
		{"U across a seam", []grid.Point{
			// Down column 63, across the bottom, up column 64 — within each
			// chunk the two columns are separate local components joined
			// only through the neighbor chunk below the seam.
			grid.Pt(63, 64), grid.Pt(63, 63), grid.Pt(63, 62),
			grid.Pt(64, 62), grid.Pt(64, 63), grid.Pt(64, 64)}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkConnAllPaths(t, connWorld(tc.cells...), tc.want)
		})
	}
}

// TestConnIncrSplitRejoin moves the robot bridging the east seam off the
// seam row and back through protocol rounds and checks the incremental
// layer tracks the split and the rejoin without falling back to the BFS
// after warm-up.
func TestConnIncrSplitRejoin(t *testing.T) {
	// Two cells per side of the east seam, bridged across it.
	bridgeL, bridgeR := grid.Pt(63, 10), grid.Pt(64, 10)
	d := connWorld(grid.Pt(62, 10), bridgeL, bridgeR, grid.Pt(65, 10))
	checkConnAllPaths(t, d, true)
	base := d.ConnStats()
	if base.Fallbacks != 1 {
		t.Fatalf("warm-up fallbacks = %d, want exactly 1 (cold start)", base.Fallbacks)
	}

	off := bridgeR.Add(grid.North)
	stepMoves(d, map[grid.Point]grid.Point{bridgeR: off})
	if d.Connected() {
		t.Fatal("Connected after the seam bridge stepped off = true")
	}
	stepMoves(d, map[grid.Point]grid.Point{off: bridgeR})
	if !d.Connected() {
		t.Fatal("Connected after the seam bridge returned = false")
	}
	st := d.ConnStats()
	if st.Fallbacks != base.Fallbacks {
		t.Fatalf("split/rejoin fell back to BFS: fallbacks %d → %d", base.Fallbacks, st.Fallbacks)
	}
	if st.Relabels <= base.Relabels {
		t.Fatalf("split/rejoin did not relabel any chunk: relabels %d → %d", base.Relabels, st.Relabels)
	}
}

// TestConnIncrEviction empties a whole chunk — its last robot steps
// across the seam and merges onto a robot of the western chunk — and
// checks the layer drops it from the chunk graph (and keeps answering
// correctly when a robot steps back into it).
func TestConnIncrEviction(t *testing.T) {
	// A row ending on the west side of the seam at x = 63/64, and one
	// robot in the eastern chunk with a gap between them.
	d := connWorld(grid.Pt(60, 10), grid.Pt(61, 10), grid.Pt(62, 10), grid.Pt(63, 10), grid.Pt(65, 10))
	checkConnAllPaths(t, d, false)
	if st := d.ConnStats(); st.Chunks != 2 {
		t.Fatalf("chunk graph size = %d, want 2", st.Chunks)
	}

	stepMoves(d, map[grid.Point]grid.Point{grid.Pt(65, 10): grid.Pt(64, 10)})
	checkConnAllPaths(t, d, true)
	stepMoves(d, map[grid.Point]grid.Point{grid.Pt(64, 10): grid.Pt(63, 10)}) // merges
	if !d.Connected() {
		t.Fatal("Connected after evicting the eastern chunk = false")
	}
	if st := d.ConnStats(); st.Chunks != 1 || st.Comps != 1 {
		t.Fatalf("after eviction: chunks=%d comps=%d, want 1/1", st.Chunks, st.Comps)
	}

	stepMoves(d, map[grid.Point]grid.Point{grid.Pt(63, 10): grid.Pt(64, 10)})
	if d.Connected() {
		t.Fatal("Connected after a robot stepped back into the eastern chunk = true")
	}
	if st := d.ConnStats(); st.Chunks != 2 || st.Comps != 2 {
		t.Fatalf("after repopulation: chunks=%d comps=%d, want 2/2", st.Chunks, st.Comps)
	}
}

// TestConnIncrColdStart pins the cold-start protocol: exactly one
// fallback (a structure rebuild) on the first query, none after.
func TestConnIncrColdStart(t *testing.T) {
	d := connWorld(grid.Pt(0, 0), grid.Pt(1, 0), grid.Pt(2, 0))
	for i := 0; i < 4; i++ {
		if !d.Connected() {
			t.Fatalf("Connected (query %d) = false", i)
		}
	}
	if st := d.ConnStats(); st.Queries != 4 || st.Fallbacks != 1 {
		t.Fatalf("stats = %+v, want 4 queries / 1 fallback", st)
	}
}

// TestConnIncrRoundCommit drives the real round protocol — Arrive, Land,
// Commit — across a seam and checks the commit-time dirty detection
// keeps the incremental answers exact, including a disconnect caused by a
// single departing robot.
func TestConnIncrRoundCommit(t *testing.T) {
	// A 4-cell line crossing the east seam: 62..65 at y=7.
	cells := []grid.Point{grid.Pt(62, 7), grid.Pt(63, 7), grid.Pt(64, 7), grid.Pt(65, 7)}
	d := connWorld(cells...)
	checkConnAllPaths(t, d, true)
	base := d.ConnStats()

	// Round 1: the east end steps away north — diagonal contact only, so
	// the swarm splits.
	stepMoves(d, map[grid.Point]grid.Point{grid.Pt(65, 7): grid.Pt(65, 8)})
	if d.Connected() {
		t.Fatal("Connected after the east end stepped away = true")
	}
	// Round 2: it steps back.
	stepMoves(d, map[grid.Point]grid.Point{grid.Pt(65, 8): grid.Pt(65, 7)})
	if !d.Connected() {
		t.Fatal("Connected after the east end returned = false")
	}
	// Round 3: nobody moves — no chunk is dirtied, no relabel should run.
	pre := d.ConnStats()
	stepMoves(d, nil)
	if !d.Connected() {
		t.Fatal("Connected after a no-move round = false")
	}
	st := d.ConnStats()
	if st.Fallbacks != base.Fallbacks {
		t.Fatalf("round commits fell back to BFS: %d → %d", base.Fallbacks, st.Fallbacks)
	}
	if st.Relabels != pre.Relabels {
		t.Fatalf("a no-move round relabeled chunks: %d → %d", pre.Relabels, st.Relabels)
	}
}

// TestSnapshotRebuildsConnIncr checks a snapshot/restore round-trip
// rebuilds the incremental structure identically: same answers, and the
// same chunk graph (chunk coordinates, per-chunk component counts, total
// components) once warm.
func TestSnapshotRebuildsConnIncr(t *testing.T) {
	d := NewDense(gen.RandomBlob(300, 11).Cells(), false)
	// Warm the structure, then dirty chunks through protocol rounds: the
	// canonical-order corner robot steps out of the swarm and back.
	d.Connected()
	corner := d.Cells()[0]
	out := corner.Add(grid.South)
	stepMoves(d, map[grid.Point]grid.Point{corner: out})
	d.Connected()
	stepMoves(d, map[grid.Point]grid.Point{out: corner})
	d.Connected()

	r, rest, err := DecodeDense(d.AppendState(nil), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after decode", len(rest))
	}
	if got, want := r.Connected(), d.Connected(); got != want {
		t.Fatalf("restored Connected = %v, original %v", got, want)
	}
	if st := r.ConnStats(); st.Fallbacks != 1 {
		t.Fatalf("restored world answered without a cold-start rebuild: %+v", st)
	}
	// One more query on each side, so both report their chunk graph from
	// a warm structure.
	d.Connected()
	r.Connected()

	type chunkSummary struct {
		cx, cy, ncomps int
	}
	summarize := func(d *Dense) map[chunkSummary]bool {
		m := map[chunkSummary]bool{}
		for _, t := range d.live {
			m[chunkSummary{t.cx, t.cy, t.conn.ncomps}] = true
		}
		return m
	}
	a, b := summarize(d), summarize(r)
	if len(a) != len(b) {
		t.Fatalf("chunk graphs differ in size: %d vs %d", len(a), len(b))
	}
	for k := range a {
		if !b[k] {
			t.Fatalf("restored chunk graph is missing %+v", k)
		}
	}
	if as, bs := d.ConnStats(), r.ConnStats(); as.Chunks != bs.Chunks || as.Comps != bs.Comps {
		t.Fatalf("chunk/component counts differ: %d/%d vs %d/%d",
			as.Chunks, as.Comps, bs.Chunks, bs.Comps)
	}
}

// A restored world that is disconnected across several chunks answers its
// cold queries from the rebuilt structure, without a scratch BFS:
// Connected is false after one rebuild. The largest component, found by
// the scratch flood of a second decoded copy, is the 180×10 bar.
func TestColdQueryOnRestoredDisconnectedWorld(t *testing.T) {
	var cells []grid.Point
	for x := -30; x < 150; x++ { // three chunk columns, two chunk rows
		for y := 60; y < 70; y++ {
			cells = append(cells, grid.Pt(x, y))
		}
	}
	for x := 0; x < 90; x++ { // a thinner bar two chunk rows up
		cells = append(cells, grid.Pt(x, 200), grid.Pt(x, 201))
	}
	b := NewDense(swarm.New(cells...).Cells(), false).AppendState(nil)
	decode := func() *Dense {
		d, _, err := DecodeDense(b, false)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	d := decode()
	if d.Connected() {
		t.Fatal("cold Connected() on a two-component world = true")
	}
	if st := d.ConnStats(); st.Queries != 1 || st.Fallbacks != 1 {
		t.Fatalf("cold query stats %+v, want one query that built the structure", st)
	}
	if st := d.ConnStats(); st.Chunks < 4 {
		t.Fatalf("the world spans %d chunks, want a multi-chunk world", st.Chunks)
	}
	if d.vis != nil {
		t.Fatal("the cold Connected query ran a scratch flood")
	}

	if size, _ := decode().LargestLiveComponent(); size != 1800 {
		t.Fatalf("largest component has %d cells, want the 180×10 bar", size)
	}
}

// FuzzIncrementalConnectivity drives random one-robot protocol rounds —
// L∞-1 moves, merges onto a 4-neighbour and steps toward the seam corner —
// over a block planted on a four-chunk corner and checks the incremental
// Connected against the scratch BFS and the swarm after every round, and
// that exactly the live tiles then carry connectivity state. The
// seed corpus aims at the seams: border oscillation, corner bridges, a
// planted disconnect-and-return, and a chunk that empties and is entered
// again, so its connectivity state is detached and rebuilt.
func FuzzIncrementalConnectivity(f *testing.F) {
	// Each op is two bytes: robot selector, then direction/op code.
	// Codes 0..8 move robot (selector % len) by the L∞ unit vector
	// (code%3-1, code/3-1) onto a free cell; code 9 merges it onto its
	// first occupied 4-neighbour; 10.. steps it one cell toward the chunk
	// corner at (63.5, 63.5), merging if that cell is occupied.
	f.Add([]byte{0, 5, 0, 5, 0, 3, 0, 3, 0, 5, 0, 5})        // east-west oscillation
	f.Add([]byte{1, 7, 1, 1, 1, 7, 1, 1, 2, 7, 2, 1})        // north-south oscillation
	f.Add([]byte{3, 9, 3, 10, 5, 9, 9, 9, 11, 12, 250, 200}) // merges + corner steps
	f.Add([]byte{0, 0, 1, 2, 2, 6, 3, 8, 4, 4, 5, 0, 6, 2})  // diagonal drifts
	f.Add([]byte{35, 5, 35, 5, 35, 5, 35, 5, 35, 3, 35, 3})  // walk a corner robot away and back
	// Merge chunk (0,0)'s nine robots east, row by row, into chunk (1,0);
	// then (64,62) steps back in to (63,61) and out again.
	f.Add([]byte{0, 9, 0, 9, 0, 9, 3, 9, 3, 9, 3, 9, 6, 9, 6, 9, 6, 9, 3, 0, 0, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := swarm.New()
		// 6×6 block spanning the four-chunk corner at (64, 64).
		for y := 61; y <= 66; y++ {
			for x := 61; x <= 66; x++ {
				s.Add(grid.Pt(x, y))
			}
		}
		d := NewDense(s.Cells(), false)
		check := func() {
			t.Helper()
			incr, bfs, oracle := d.Connected(), d.ConnectedBFS(), s.Connected()
			if incr != bfs || incr != oracle {
				t.Fatalf("Connected diverged: incr=%v bfs=%v oracle=%v (n=%d)",
					incr, bfs, oracle, d.Len())
			}
			if err := d.ConnMismatch(); err != nil {
				t.Fatal(err)
			}
		}
		toward := func(v int) int {
			switch {
			case v < 63:
				return 1
			case v > 64:
				return -1
			}
			return 0
		}
		check()
		for i := 0; i+1 < len(data) && i < 2*300; i += 2 {
			cells := s.Cells()
			p := cells[int(data[i])%len(cells)]
			q := p
			switch code := int(data[i+1]) % 12; {
			case code < 9:
				if r := p.Add(grid.Pt(code%3-1, code/3-1)); !s.Has(r) {
					q = r
				}
			case code == 9:
				for _, r := range grid.Neighbors4(p) {
					if s.Has(r) {
						q = r
						break
					}
				}
			default:
				q = p.Add(grid.Pt(toward(p.X), toward(p.Y)))
			}
			if q == p {
				continue
			}
			stepMoves(d, map[grid.Point]grid.Point{p: q})
			s.Remove(p)
			s.Add(q)
			check()
		}
		// A final full-oracle sweep (components, degrees, bounds).
		checkAgainstOracle(t, d, s, s.Cells())
	})
}

// The scratch flood's ring queue grows while wrapped and loses no entry:
// a random blob's search layers run past the ring's first 64 entries, and
// the ring fills at arbitrary offsets. A lost entry's cell would go
// uncounted, and the blobs sit away from the origin, which a zero entry
// would name. Beside a smaller blob the larger one must still come out
// whole.
func TestFloodWideFrontier(t *testing.T) {
	blob := func(n int, seed int64, off grid.Point) []grid.Point {
		cells := gen.RandomBlob(n, seed).Cells()
		for i := range cells {
			cells[i] = cells[i].Add(off)
		}
		return cells
	}
	// Each query runs on a fresh world, so each grows the ring itself.
	for seed := int64(1); seed <= 4; seed++ {
		big := blob(6000, seed, grid.Pt(-300, 500))
		two := append(blob(3000, seed, grid.Pt(-300, 900)), big...)
		want := swarm.New(big...).Bounds()
		if !connWorld(big...).ConnectedBFS() {
			t.Errorf("seed %d: ConnectedBFS reports a blob disconnected", seed)
		}
		if connWorld(two...).ConnectedBFS() {
			t.Errorf("seed %d: ConnectedBFS reports two blobs 400 rows apart connected", seed)
		}
		for _, cells := range [][]grid.Point{big, two} {
			if n, b := connWorld(cells...).LargestLiveComponent(); n != len(big) || b != want {
				t.Errorf("seed %d, %d cells: LargestLiveComponent = %d, %v, want %d, %v", seed, len(cells), n, b, len(big), want)
			}
		}
	}
}

// TestLargestLiveComponent pins the degraded-mode ranking: components are
// ranked by live-robot count, not cell count, so a big heap of crashed
// robots never outranks the survivors, and the returned bounds cover only
// the live cells.
func TestLargestLiveComponent(t *testing.T) {
	// Component A: a 3×3 block at the origin, fully crashed (9 cells).
	// Component B: a 2-cell strip far away, fully live.
	cells := []grid.Point{}
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			cells = append(cells, grid.Pt(x, y))
		}
	}
	cells = append(cells, grid.Pt(50, 0), grid.Pt(51, 0))
	d := connWorld(cells...)
	d.EnableCrashes()
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			d.Crash(grid.Pt(x, y))
		}
	}

	n, b := d.LargestLiveComponent()
	if n != 2 {
		t.Fatalf("live count = %d, want 2 (the crashed 3×3 must not win)", n)
	}
	if b != (grid.Rect{MinX: 50, MinY: 0, MaxX: 51, MaxY: 0}) {
		t.Fatalf("live bounds = %v", b)
	}

	// A crashed cell inside the winning component is scenery: it affects
	// neither the count nor the bounds.
	d2 := connWorld(grid.Pt(0, 0), grid.Pt(1, 0), grid.Pt(2, 0))
	d2.EnableCrashes()
	d2.Crash(grid.Pt(1, 0))
	n2, b2 := d2.LargestLiveComponent()
	if n2 != 2 || b2 != (grid.Rect{MinX: 0, MinY: 0, MaxX: 2, MaxY: 0}) {
		t.Fatalf("count/bounds with embedded crash = %d, %v", n2, b2)
	}

	// All-crashed world: no live component at all.
	d.Crash(grid.Pt(50, 0))
	d.Crash(grid.Pt(51, 0))
	n3, _ := d.LargestLiveComponent()
	if n3 != 0 {
		t.Fatalf("all-crashed world reported %d live robots", n3)
	}

	// Tie on live count: first-wins over canonical order — the component
	// with the smaller minimum cell.
	d4 := connWorld(grid.Pt(0, 0), grid.Pt(10, 0))
	d4.EnableCrashes()
	n4, b4 := d4.LargestLiveComponent()
	if n4 != 1 || b4 != (grid.Rect{MinX: 0, MinY: 0, MaxX: 0, MaxY: 0}) {
		t.Fatalf("tie-break: %d, %v; want the canonical-first singleton", n4, b4)
	}
}
