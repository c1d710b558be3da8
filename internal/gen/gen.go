// Package gen generates the workload swarms for the experiments: the
// regular shapes the paper's figures use (lines, plateaus on supports,
// hollow rectangles, staircases, spirals, combs) plus randomized connected
// swarms for corpus/fuzz testing. Every generator returns a connected swarm
// and is deterministic given its parameters (random generators take an
// explicit seed).
package gen

import (
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"gridgather/internal/grid"
	"gridgather/internal/swarm"
)

// Line returns a horizontal line of n robots — the diameter worst case
// behind the Ω(n) lower bound.
func Line(n int) *swarm.Swarm {
	s := swarm.New()
	for i := 0; i < n; i++ {
		s.Add(grid.Pt(i, 0))
	}
	return s
}

// Solid returns a filled w×h rectangle.
func Solid(w, h int) *swarm.Swarm {
	s := swarm.New()
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			s.Add(grid.Pt(x, y))
		}
	}
	return s
}

// Hollow returns a w×h rectangle ring of wall thickness 1 — the canonical
// mergeless swarm whose long walls only runs can shorten. It places the
// four sides directly, so the cost follows the perimeter, not the area.
func Hollow(w, h int) *swarm.Swarm {
	if w <= 0 || h <= 0 {
		return swarm.New()
	}
	s := swarm.NewSized(2 * (w + h))
	for x := 0; x < w; x++ {
		s.Add(grid.Pt(x, 0))
		s.Add(grid.Pt(x, h-1))
	}
	for y := 1; y < h-1; y++ {
		s.Add(grid.Pt(0, y))
		s.Add(grid.Pt(w-1, y))
	}
	return s
}

// Staircase returns a staircase of n robots with the given step size
// (Fig. 16's stairways use step 1).
func Staircase(n, step int) *swarm.Swarm {
	if step < 1 {
		step = 1
	}
	s := swarm.New()
	x, y := 0, 0
	horiz := true
	placed := 1
	s.Add(grid.Pt(0, 0))
	run := 0
	for placed < n {
		if horiz {
			x++
		} else {
			y++
		}
		run++
		if run >= step {
			horiz = !horiz
			run = 0
		}
		s.Add(grid.Pt(x, y))
		placed++
	}
	return s
}

// Plus returns a plus/cross of four arms of the given length.
func Plus(arm int) *swarm.Swarm {
	s := swarm.New(grid.Pt(0, 0))
	for i := 1; i <= arm; i++ {
		s.Add(grid.Pt(i, 0))
		s.Add(grid.Pt(-i, 0))
		s.Add(grid.Pt(0, i))
		s.Add(grid.Pt(0, -i))
	}
	return s
}

// Comb returns a spine of length w with upward teeth of the given height
// every other column.
func Comb(w, tooth int) *swarm.Swarm {
	s := swarm.New()
	for x := 0; x < w; x++ {
		s.Add(grid.Pt(x, 0))
		if x%2 == 0 {
			for y := 1; y <= tooth; y++ {
				s.Add(grid.Pt(x, y))
			}
		}
	}
	return s
}

// Spiral returns a rectangular inward spiral with the given number of arms
// of decreasing length, wall gap 2 (so arms don't touch).
func Spiral(size int) *swarm.Swarm {
	s := swarm.New()
	x, y := 0, 0
	dir := grid.East
	length := size
	s.Add(grid.Pt(x, y))
	for length > 2 {
		for i := 0; i < length; i++ {
			x += dir.X
			y += dir.Y
			s.Add(grid.Pt(x, y))
		}
		dir = dir.PerpCW()
		if dir == grid.North || dir == grid.South {
			length -= 3
		}
	}
	return s
}

// Table returns the Fig. 4 scenario: a long top plateau of width w standing
// on two vertical legs of the given height at its ends — the subboundary
// that is too long to merge and needs runners to shrink.
func Table(w, leg int) *swarm.Swarm {
	s := swarm.New()
	for x := 0; x < w; x++ {
		s.Add(grid.Pt(x, leg))
	}
	for y := 0; y < leg; y++ {
		s.Add(grid.Pt(0, y))
		s.Add(grid.Pt(w-1, y))
	}
	return s
}

// HShape returns two vertical bars of the given height bridged in the
// middle by a horizontal bar of the given width.
func HShape(h, bridge int) *swarm.Swarm {
	s := swarm.New()
	for y := 0; y < h; y++ {
		s.Add(grid.Pt(0, y))
		s.Add(grid.Pt(bridge+1, y))
	}
	mid := h / 2
	for x := 1; x <= bridge; x++ {
		s.Add(grid.Pt(x, mid))
	}
	return s
}

// Diamond returns a solid diamond (L1 ball) of the given radius.
func Diamond(r int) *swarm.Swarm {
	s := swarm.New()
	for x := -r; x <= r; x++ {
		for y := -r; y <= r; y++ {
			if grid.Pt(x, y).L1() <= r {
				s.Add(grid.Pt(x, y))
			}
		}
	}
	return s
}

// RandomTree grows a random connected swarm of n robots by attaching each
// new robot 4-adjacent to a uniformly chosen existing robot (a random
// "diffusion" tree — thin, twisty shapes with many tips).
func RandomTree(n int, seed int64) *swarm.Swarm {
	rng := rand.New(rand.NewSource(seed))
	s := swarm.New(grid.Pt(0, 0))
	cells := []grid.Point{grid.Pt(0, 0)}
	for s.Len() < n {
		base := cells[rng.Intn(len(cells))]
		d := grid.Axis4[rng.Intn(4)]
		q := base.Add(d)
		if !s.Has(q) {
			s.Add(q)
			cells = append(cells, q)
		}
	}
	return s
}

// RandomBlob grows a random connected swarm of n robots preferring cells
// with more occupied neighbors (compact, blobby shapes with occasional
// holes). Each step scores every frontier cell — a free cell with deg ≥ 1
// occupied 4-neighbours — as deg²·(0.25 + u), drawing u from the seeded
// generator once per cell in sorted cell order, and adds the best (the
// first in that order on a tie). The frontier is kept sorted with each
// cell's deg, so a step costs O(frontier) and the build O(n·frontier),
// about n^1.5 for a compact blob.
func RandomBlob(n int, seed int64) *swarm.Swarm {
	rng := rand.New(rand.NewSource(seed))
	s := swarm.NewSized(n)
	type frontierCell struct {
		p   grid.Point
		deg int
	}
	var frontier []frontierCell // sorted by p
	occupy := func(p grid.Point) {
		s.Add(p)
		for _, q := range grid.Neighbors4(p) {
			if s.Has(q) {
				continue
			}
			i := sort.Search(len(frontier), func(i int) bool { return !frontier[i].p.Less(q) })
			if i < len(frontier) && frontier[i].p == q {
				frontier[i].deg++
			} else {
				// A free cell off the frontier had no occupied neighbour.
				frontier = slices.Insert(frontier, i, frontierCell{q, 1})
			}
		}
	}
	occupy(grid.Pt(0, 0))
	for s.Len() < n {
		best, bestScore := 0, -1.0
		for i, c := range frontier {
			if score := float64(c.deg*c.deg) * (0.25 + rng.Float64()); score > bestScore {
				best, bestScore = i, score
			}
		}
		p := frontier[best].p
		frontier = slices.Delete(frontier, best, best+1)
		occupy(p)
	}
	return s
}

// RandomWalk grows a connected swarm of n robots along a self-avoiding-ish
// random walk (long snaky shapes).
func RandomWalk(n int, seed int64) *swarm.Swarm {
	rng := rand.New(rand.NewSource(seed))
	s := swarm.New(grid.Pt(0, 0))
	cur := grid.Pt(0, 0)
	stall := 0
	// cells indexes every cell in (Y, X) order, so a restart picks the
	// k-th cell of the sorted swarm without sorting it.
	var cells rowOrder
	cells.add(cur)
	for s.Len() < n {
		d := grid.Axis4[rng.Intn(4)]
		q := cur.Add(d)
		if s.Has(q) {
			cur = q // slide along the existing body
			stall++
			if stall > 64 {
				// Restart from a random existing cell to avoid dead ends.
				cur = cells.at(rng.Intn(s.Len()))
				stall = 0
			}
			continue
		}
		s.Add(q)
		cells.add(q)
		cur = q
		stall = 0
	}
	return s
}

// rowOrder is an order-statistic index over a growing set of cells in
// (Y, X) order: each row's X coordinates in a sorted slice, and a Fenwick
// tree over the rows' populations. An insert is a binary search and a
// shift within its row plus O(log rows) tree updates; the k-th cell is a
// descent of the tree and one row read. The row span grows by doubling.
type rowOrder struct {
	minY int
	rows [][]int // rows[y-minY]: the row's X coordinates, ascending
	tree []int   // Fenwick tree over the row populations, 1-based
}

// add inserts p, which must not be in the set yet.
func (o *rowOrder) add(p grid.Point) {
	o.cover(p.Y)
	i := p.Y - o.minY
	r := o.rows[i]
	j := sort.SearchInts(r, p.X)
	o.rows[i] = slices.Insert(r, j, p.X)
	for k := i + 1; k < len(o.tree); k += k & -k {
		o.tree[k]++
	}
}

// cover grows the row span, doubling it, until it holds row y, and
// rebuilds the tree over the new span.
func (o *rowOrder) cover(y int) {
	if len(o.rows) == 0 {
		o.minY, o.rows, o.tree = y, make([][]int, 1), make([]int, 2)
		return
	}
	if y >= o.minY && y < o.minY+len(o.rows) {
		return
	}
	lo, hi := min(o.minY, y), max(o.minY+len(o.rows), y+1)
	span := max(hi-lo, 2*len(o.rows))
	if y < o.minY {
		lo = hi - span
	}
	rows := make([][]int, span)
	copy(rows[o.minY-lo:], o.rows)
	o.minY, o.rows = lo, rows
	o.tree = make([]int, span+1)
	for i, r := range rows {
		k := i + 1
		o.tree[k] += len(r)
		if up := k + k&-k; up <= span {
			o.tree[up] += o.tree[k]
		}
	}
}

// at returns the k-th cell (0-based) in (Y, X) order.
func (o *rowOrder) at(k int) grid.Point {
	i := 0 // tree position: rows [0, i) hold at most k cells
	for step := 1 << bits.Len(uint(len(o.rows))); step > 0; step >>= 1 {
		if j := i + step; j < len(o.tree) && o.tree[j] <= k {
			i = j
			k -= o.tree[j]
		}
	}
	return grid.Pt(o.rows[i][k], o.minY+i)
}

// RandomClusters grows k compact random blobs joined by random monotone
// lattice paths — the "several dense villages, thin roads" shape that
// stresses both merge-rich regions and long mergeless corridors in one
// instance. Centers are spread on a deterministic jittered ring so the
// paths have real length at every n; the blobs are then grown round-robin
// (random attach, RandomTree-style) until the swarm holds exactly n robots
// (or the paths alone already exceed n, for tiny n). The result is
// connected and deterministic for a fixed seed.
func RandomClusters(n, k int, seed int64) *swarm.Swarm {
	if k < 1 {
		k = 1
	}
	if maxK := n/8 + 1; k > maxK {
		k = maxK
	}
	rng := rand.New(rand.NewSource(seed))
	spread := 2*isqrt(n) + 4
	centers := make([]grid.Point, k)
	for i := 1; i < k; i++ {
		// Next center: a jittered step away from the previous one, biased
		// outward so clusters don't collapse onto each other.
		dx := spread/2 + rng.Intn(spread)
		dy := spread/2 + rng.Intn(spread)
		if rng.Intn(2) == 0 {
			dy = -dy
		}
		centers[i] = centers[i-1].Add(grid.Pt(dx, dy))
	}
	s := swarm.New(centers[0])
	// Carve a random monotone lattice path between consecutive centers:
	// every step moves one cell toward the target, choosing the axis at
	// random — a different staircase per seed, always connected.
	for i := 1; i < k; i++ {
		cur, dst := centers[i-1], centers[i]
		for cur != dst {
			stepX := cur.X != dst.X && (cur.Y == dst.Y || rng.Intn(2) == 0)
			if stepX {
				cur.X += sign(dst.X - cur.X)
			} else {
				cur.Y += sign(dst.Y - cur.Y)
			}
			s.Add(cur)
		}
	}
	// Grow the blobs round-robin until the population is exact: attach a
	// robot 4-adjacent to a random existing member of the cluster.
	clusters := make([][]grid.Point, k)
	for i, c := range centers {
		clusters[i] = append(clusters[i], c)
	}
	for i := 0; s.Len() < n; i = (i + 1) % k {
		cl := clusters[i]
		for {
			base := cl[rng.Intn(len(cl))]
			q := base.Add(grid.Axis4[rng.Intn(4)])
			if !s.Has(q) {
				s.Add(q)
				clusters[i] = append(cl, q)
				break
			}
			// Occupied: keep the walk going from the occupied cell so
			// dense cluster cores don't stall the growth.
			cl = append(cl, q)
		}
	}
	return s
}

// AntColony grows a random connected swarm of exactly n robots with a
// small colony of pheromone-laying ants. Each ant wanders the lattice near
// the swarm, biased toward cells its colony has visited before (the
// pheromone field), and deposits a robot whenever it stands on a free cell
// 4-adjacent to the swarm — so every addition touches the existing body
// and the result is connected by construction. The pheromone bias makes
// ants retrace and extend each other's trails, yielding organic branching
// growths — denser than tree, stringier than blob — with a texture neither
// deterministic family covers. An ant that wanders too long without
// depositing is leashed back onto a random swarm cell. Deterministic for a
// fixed seed: neighbors are scored in the fixed Axis4 order and the
// pheromone map is only keyed into, never iterated.
func AntColony(n int, seed int64) *swarm.Swarm {
	rng := rand.New(rand.NewSource(seed))
	s := swarm.New(grid.Pt(0, 0))
	const ants = 8
	const leash = 48 // steps without a deposit before teleporting home
	pher := map[grid.Point]int{grid.Pt(0, 0): 1}
	pos := make([]grid.Point, ants)
	idle := make([]int, ants)
	for s.Len() < n {
		for a := 0; a < ants && s.Len() < n; a++ {
			// Roulette-pick among the four neighbors in fixed order, weight
			// 1 + min(pheromone, cap): trails attract, but the cap keeps
			// every direction at positive probability — a greedy pick would
			// let two high-pheromone interior cells trap an ant forever.
			var w [4]float64
			total := 0.0
			for j, d := range grid.Axis4 {
				w[j] = float64(1 + min(pher[pos[a].Add(d)], 8))
				total += w[j]
			}
			best := pos[a].Add(grid.Axis4[3])
			r := rng.Float64() * total
			for j, d := range grid.Axis4 {
				if r -= w[j]; r < 0 {
					best = pos[a].Add(d)
					break
				}
			}
			pos[a] = best
			pher[best]++
			idle[a]++
			if !s.Has(best) {
				adj := false
				for _, q := range grid.Neighbors4(best) {
					if s.Has(q) {
						adj = true
						break
					}
				}
				if adj {
					s.Add(best)
					idle[a] = 0
				}
			}
			if idle[a] > leash {
				cells := s.Cells()
				pos[a] = cells[rng.Intn(len(cells))]
				idle[a] = 0
			}
		}
	}
	return s
}

func sign(v int) int {
	if v < 0 {
		return -1
	}
	if v > 0 {
		return 1
	}
	return 0
}

// Sierpinski returns the depth-d Sierpinski carpet: the 3^d × 3^d square
// with every center ninth removed recursively — 8^d robots in a connected,
// maximally hole-ridden fractal. It exercises boundary machinery at every
// scale at once: the workload has Θ(n) boundary cells (against Θ(√n) for a
// solid square) spread over nested subboundaries.
func Sierpinski(depth int) *swarm.Swarm {
	if depth < 0 {
		depth = 0
	}
	size := 1
	for i := 0; i < depth; i++ {
		size *= 3
	}
	s := swarm.New()
	for x := 0; x < size; x++ {
		for y := 0; y < size; y++ {
			if carpetCell(x, y) {
				s.Add(grid.Pt(x, y))
			}
		}
	}
	return s
}

// carpetCell reports whether (x, y) survives the carpet recursion: no
// base-3 digit position may read (1, 1).
func carpetCell(x, y int) bool {
	for x > 0 || y > 0 {
		if x%3 == 1 && y%3 == 1 {
			return false
		}
		x /= 3
		y /= 3
	}
	return true
}

// sierpinskiDepth picks the carpet depth whose population 8^d is nearest
// to n in log scale.
func sierpinskiDepth(n int) int {
	d, pop := 1, 8
	for pop*8 <= n*3 { // next depth is closer as long as n ≥ pop·8/3 ≈ geometric midpoint
		d++
		pop *= 8
	}
	return d
}

// SeededWorkload is a workload family whose builder takes an explicit seed.
// Deterministic families (lines, rings, spirals, …) ignore the seed; for
// them Random is false and running more than one seed reproduces the same
// swarm. The sweep harness uses this to expand (workload × n × seed) grids
// without duplicating deterministic instances.
type SeededWorkload struct {
	// Name identifies the family.
	Name string
	// Build returns the family's swarm with approximately n robots.
	Build func(n int, seed int64) *swarm.Swarm
	// Random reports whether the seed changes the output.
	Random bool
}

// SeededCatalog returns the standard workload families with explicit-seed
// builders.
func SeededCatalog() []SeededWorkload {
	return []SeededWorkload{
		{Name: "line", Build: func(n int, _ int64) *swarm.Swarm { return Line(n) }},
		{Name: "solid", Build: func(n int, _ int64) *swarm.Swarm { return Solid(isqrt(n), isqrt(n)) }},
		{Name: "hollow", Build: func(n int, _ int64) *swarm.Swarm { w := n/4 + 1; return Hollow(w, w) }},
		{Name: "staircase", Build: func(n int, _ int64) *swarm.Swarm { return Staircase(n, 1) }},
		{Name: "spiral", Build: func(n int, _ int64) *swarm.Swarm { return Spiral(spiralSize(n)) }},
		{Name: "sierpinski", Build: func(n int, _ int64) *swarm.Swarm { return Sierpinski(sierpinskiDepth(n)) }},
		{Name: "tree", Build: RandomTree, Random: true},
		{Name: "blob", Build: RandomBlob, Random: true},
		{Name: "walk", Build: RandomWalk, Random: true},
		{Name: "clusters", Build: func(n int, seed int64) *swarm.Swarm { return RandomClusters(n, 4, seed) }, Random: true},
		{Name: "antcolony", Build: AntColony, Random: true},
	}
}

// catalogIndex maps each SeededCatalog family name to its entry, built once.
var catalogIndex = sync.OnceValue(func() map[string]SeededWorkload {
	idx := make(map[string]SeededWorkload)
	for _, w := range SeededCatalog() {
		idx[w.Name] = w
	}
	return idx
})

// Lookup returns the SeededCatalog family with the given name, and false
// if there is none.
func Lookup(name string) (SeededWorkload, bool) {
	w, ok := catalogIndex()[name]
	return w, ok
}

func isqrt(n int) int {
	r := 1
	for r*r < n {
		r++
	}
	return r
}

// spiralSize finds the smallest spiral parameter yielding at least n
// robots; the smallest spiral, size 4, holds 5.
func spiralSize(n int) int {
	size := 4
	for spiralLen(size) < n {
		size++
	}
	return size
}

// spiralLen returns Spiral(size).Len() without building the spiral: the
// start cell plus every arm, walking the same arm lengths. Arms never
// touch, so no cell is counted twice.
func spiralLen(size int) int {
	n := 1
	dir := grid.East
	for length := size; length > 2; {
		n += length
		dir = dir.PerpCW()
		if dir == grid.North || dir == grid.South {
			length -= 3
		}
	}
	return n
}

// ThickRing returns a w×h rectangle ring with the given wall thickness —
// thick walls admit no sideways merge configurations, so erosion is
// driven by corner starts.
func ThickRing(w, h, thickness int) *swarm.Swarm {
	s := swarm.New()
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			if x < thickness || y < thickness || x >= w-thickness || y >= h-thickness {
				s.Add(grid.Pt(x, y))
			}
		}
	}
	return s
}

// DiamondRing returns a hollow diamond: all cells at L1 distance r or r-1
// from the origin (two shells keep it 4-connected). Its boundary has no
// aligned runs of three robots except at the four apexes — the minimal
// foothold for merge configurations.
func DiamondRing(r int) *swarm.Swarm {
	s := swarm.New()
	for x := -r; x <= r; x++ {
		for y := -r; y <= r; y++ {
			d := grid.Pt(x, y).L1()
			if d == r || d == r-1 {
				s.Add(grid.Pt(x, y))
			}
		}
	}
	return s
}
