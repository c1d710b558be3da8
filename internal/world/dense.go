// Package world provides the engine's global state: occupancy, per-robot
// run states and logical clocks, the canonical sorted cell order, and the
// per-round apply protocol (arrivals, merges, state hand-offs).
//
// The single implementation is Dense, a tiled bitset occupancy index —
// 64-bit row words, with a column-major copy, over fixed 64×64-cell
// chunks, O(1) unchecked reads, no rebasing as the swarm shrinks — plus
// flat robot-indexed arrays for run states and logical clocks. A world is
// built once, from a sorted cell list (NewDense) or a snapshot
// (DecodeDense), and after that its occupancy changes only through the
// round protocol below: robots move and merge, none is added or removed
// out of band. Robots are identified by a stable slot assigned once at
// construction (in sorted cell order) and carried along as they move, so
// the slot space is fixed for the world's lifetime and every per-slot
// table is sized once. A point→slot index lives in the chunk tiles and is
// maintained incrementally. The index is stored in 8×8-cell blocks, each
// allocated the first time a layer writes a slot into it and never freed,
// so a thin swarm (a line, a ring, a staircase) pays for the blocks its
// robots have touched, not for whole 64×64 planes, and a slot read costs
// one load more than a dense plane would.
// The sorted cell order is stored once, as a cell array and a parallel
// slot array that Cells and Slots return without copying (valid until the
// next Commit). It is repaired incrementally each round (robots move
// L∞ ≤ 1, so a near-sorted insertion pass replaces a full re-sort, each
// slot moving with its cell), and the enclosing bounds for the Gathered()
// check are accumulated from the round's arrivals instead of rescanned;
// both are exact after every Commit.
//
// (The original map-backed representation lived here for one PR as a
// differential oracle; the dense backend was proven bit-identical to it
// round by round and the oracle is gone. The engine's differential
// suites live in internal/fsync.)
//
// # Round protocol
//
// The engine owns the round semantics (merge rules, transfer death rules,
// clock maxing); the world stores, and marks every write a view could
// observe for the quiescence layer (quiesce.go). Reads refer to the
// current (pre-round) occupancy; the round protocol builds the next
// round's occupancy, which Commit swaps in:
//
//	BeginRound
//	  Arrive(from, dst) for every activated robot, in canonical cell
//	  order of from; SetArrivalState after each sole-so-far arrival;
//	  RaiseClock after each arrival (when clocks are on)
//	BeginSleep
//	  Sleep(p) for every sleeping robot, in canonical cell order;
//	  RaiseClock after each (when clocks are on)
//	ArrivalCount / ArrivalState / SetArrivalState for transfer resolution
//	Commit
//
//gather:deterministic
package world

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"gridgather/internal/codec"
	"gridgather/internal/grid"
	"gridgather/internal/robot"
)

const (
	tileShift = 6
	tileSize  = 1 << tileShift // 64×64 cells per chunk
	tileMask  = tileSize - 1

	blockShift = 3
	blockSize  = 1 << blockShift // 8×8 cells per slot block
	blockMask  = blockSize - 1
	tileBlocks = tileSize >> blockShift // slot blocks per chunk side
)

// slotBlock holds the slots of one 8×8 block of a chunk, row-major.
type slotBlock [blockSize * blockSize]int32

// tile is one 64×64-cell chunk. Occupancy is one uint64 word per row
// (bit x&63 of word y&63), double-buffered across the two round layers,
// with a column-major copy (bit y&63 of word x&63) so that reads along y
// scan one word the way reads along x do; multi marks cells that received
// more than one arrival in the round being built. Only construction and
// the round protocol write the occupancy and slot planes.
//
// The point→slot index is split into 8×8 blocks: slots holds, per layer,
// a row-major table of tileBlocks×tileBlocks block pointers, and a block
// is allocated the first time its layer writes a slot into it (setSlot).
// Blocks are never freed: a slot entry is only meaningful under a set
// occupancy bit, so entries are never cleared and stale ones stay
// unreachable, and a tile never costs more than two dense 64×64 planes
// plus its pointer tables.
type tile struct {
	bits      [2][tileSize]uint64
	cols      [2][tileSize]uint64 // the transpose of bits, kept in step by set and clearLayers
	multi     [tileSize]uint64
	qdirty    [tileSize]uint64 // quiescence: cells whose view may have changed since the robot there last recomputed (cumulative; cleared per cell by QuiesceNote)
	marked    [2]bool          // on Dense.live[layer]: this tile may hold bits in that layer
	connDirty bool             // queued on connIncr.dirty (occupancy changed since the last relabel)
	cx, cy    int              // absolute chunk coordinates (set once at allocation)
	slots     [2][tileBlocks * tileBlocks]*slotBlock
}

// slot returns the slot stored at (rx, ry) in layer. The occupancy bit
// must be set, which guarantees the block exists.
func (t *tile) slot(layer, rx, ry int) int32 {
	return t.slots[layer][(ry>>blockShift)*tileBlocks+rx>>blockShift][(ry&blockMask)<<blockShift|rx&blockMask]
}

// setSlot stores slot at (rx, ry) in layer, allocating the cell's block on
// the layer's first write into it.
func (t *tile) setSlot(layer, rx, ry int, slot int32) {
	bp := &t.slots[layer][(ry>>blockShift)*tileBlocks+rx>>blockShift]
	if *bp == nil {
		*bp = new(slotBlock)
	}
	(*bp)[(ry&blockMask)<<blockShift|rx&blockMask] = slot
}

// set marks the cell at in-chunk coordinates (rx, ry) occupied in layer,
// in the row and the column words.
func (t *tile) set(layer, rx, ry int) {
	t.bits[layer][ry] |= 1 << uint(rx)
	t.cols[layer][rx] |= 1 << uint(ry)
}

// runState is the run state of one robot that carries runs. MaxRuns is
// tiny, so the runs are inlined and carrying a state is a copy, not an
// allocation. Most robots hold no runs (§3.2 allows at most two), so these
// live out of line in Dense.runPool, reached through a per-slot handle.
type runState struct {
	n    int8
	runs [robot.MaxRuns]robot.Run
}

// lane is the arrival buffer of the round being built: the arrivals' cells
// and slots as two parallel arrays, split into an activated prefix
// (near-sorted) and a sleeper suffix (sorted), plus their exact bounds.
// bufCells and bufSlots are the merge scratch.
type lane struct {
	cells      []grid.Point
	slots      []int32
	bufCells   []grid.Point
	bufSlots   []int32
	sleepStart int
	bounds     grid.Rect
}

// reset prepares the lane for a new round.
func (l *lane) reset() {
	l.cells = l.cells[:0]
	l.slots = l.slots[:0]
	l.sleepStart = -1
	l.bounds = grid.EmptyRect
}

// repair sorts the lane: the activated prefix is repaired with a
// near-sorted insertion pass (robots move L∞ ≤ 1) and merged with the
// already-sorted sleeper suffix, leaving the lane fully sorted. Every
// slot moves with its cell.
func (l *lane) repair() {
	n := len(l.cells)
	ss := l.sleepStart
	if ss < 0 || ss > n {
		ss = n
	}
	sortNearSorted(l.cells[:ss], l.slots[:ss])
	if ss == n {
		return
	}
	outC, outS := l.bufCells[:0], l.bufSlots[:0]
	ac, as := l.cells[:ss], l.slots[:ss]
	bc, bs := l.cells[ss:], l.slots[ss:]
	i, j := 0, 0
	for i < len(ac) && j < len(bc) {
		if ac[i].Less(bc[j]) {
			outC, outS = append(outC, ac[i]), append(outS, as[i])
			i++
		} else {
			outC, outS = append(outC, bc[j]), append(outS, bs[j])
			j++
		}
	}
	outC = append(append(outC, ac[i:]...), bc[j:]...)
	outS = append(append(outS, as[i:]...), bs[j:]...)
	l.bufCells, l.bufSlots = l.cells[:0], l.slots[:0]
	l.cells, l.slots = outC, outS
}

// Dense is the tiled bitset world. Chunks are addressed through a dense
// chunk-grid table covering the swarm's (slightly padded) initial bounds;
// the table grows if a robot leaves it and never shrinks or rebases — the
// paper's swarm only contracts, so growth is a cold path.
type Dense struct {
	minCX, minCY int // chunk coordinate of table entry (0, 0)
	cols, rows   int
	tiles        []*tile    // nil = chunk never occupied
	live         [2][]*tile // tiles that may hold bits per layer — Commit and the BFS scratch clear only these, so the per-round cost tracks the live population, not the initial bounds
	cur          int        // active occupancy/slot layer (0 or 1)

	// Run states: runOf maps a slot to a handle into runPool, 0 meaning
	// "no runs", so the per-slot cost is 4 bytes and only run carriers
	// occupy a pool entry. Entry 0 is never handed out; released handles
	// are reused from runFree.
	runOf   []uint32
	runPool []runState
	runFree []uint32
	clocks  []int // slot → logical clock; nil when clocks are off

	// The canonical cell order, stored once: cells in sorted (Y, X) order
	// and, at the same index, the slot of the robot on each. Cells and
	// Slots hand these arrays out as they are.
	count int          // number of robots
	cells []grid.Point // sorted (Y, X) cell order
	slots []int32      // slots parallel to cells
	next  lane         // arrivals of the round being built

	bounds grid.Rect // exact enclosing rectangle of cells

	version uint64 // bumped by every write to occupancy or crash marks

	stack []grid.Point // flood scratch
	vis   []uint64     // flood scratch: one visited bit per slot, allocated on the first flood

	conn *connIncr // incremental connectivity (lazily built on first query)

	// Quiescence layer (quiesce.go): Commit's tile diff dilates every
	// occupancy change by the view radius into the per-tile qdirty planes,
	// and qmask caches, per slot and per round phase, whether the robot's
	// last clean recompute returned the quiescent Stay.
	qOn     bool
	qRadius int
	qmask   []uint32 // slot → per-phase quiescent-verdict bits

	crashed []bool // slot → crash-stop mark; nil until EnableCrashes
}

// NewDense builds the dense world over cells, which must be in canonical
// (Y, X) order without duplicates, as swarm.Swarm.Cells returns them; it
// panics otherwise. The slice becomes the world's cell order (no copy), so
// the caller must not use it afterwards. Slots 0..len(cells)-1 are
// assigned in that order and are the world's whole slot space. withClocks
// enables per-robot logical clock tracking (needed only under a
// scheduler).
func NewDense(cells []grid.Point, withClocks bool) *Dense {
	bounds := grid.EmptyRect
	for i, p := range cells {
		if i > 0 && !cells[i-1].Less(p) {
			panic(fmt.Sprintf("world: NewDense cell %v out of canonical order or repeated", p))
		}
		bounds = bounds.Include(p)
	}
	d := newDenseSlots(len(cells), withClocks)
	d.cells = cells
	d.slots = make([]int32, len(cells))
	for i := range d.slots {
		d.slots[i] = int32(i)
	}
	d.place(bounds)
	return d
}

// newDenseSlots returns an empty world with a slot space of n slots.
func newDenseSlots(n int, withClocks bool) *Dense {
	d := &Dense{runOf: make([]uint32, n), runPool: make([]runState, 1)}
	if withClocks {
		d.clocks = make([]int, n)
	}
	return d
}

// place builds the occupancy layer from d.cells and d.slots (canonical
// order) over a chunk table sized to bounds, their exact enclosing
// rectangle, and sizes the arrival lane once for the population, so the
// first rounds do not grow it by doubling.
func (d *Dense) place(bounds grid.Rect) {
	d.initTable(bounds)
	for i, p := range d.cells {
		t := d.ensureTile(p)
		d.mark(d.cur, t)
		ry, rx := p.Y&tileMask, p.X&tileMask
		t.set(d.cur, rx, ry)
		t.setSlot(d.cur, rx, ry, d.slots[i])
	}
	n := len(d.cells)
	d.count = n
	d.bounds = bounds
	d.next.cells = make([]grid.Point, 0, n)
	d.next.slots = make([]int32, 0, n)
}

// initTable sizes the chunk table to the bounds plus one chunk of margin
// per side, so ordinary L∞ ≤ 1 movement never grows the table.
func (d *Dense) initTable(b grid.Rect) {
	if b.Empty() {
		b = grid.Rect{MinX: 0, MinY: 0, MaxX: 0, MaxY: 0}
	}
	d.minCX = (b.MinX >> tileShift) - 1
	d.minCY = (b.MinY >> tileShift) - 1
	d.cols = (b.MaxX >> tileShift) + 1 - d.minCX + 1
	d.rows = (b.MaxY >> tileShift) + 1 - d.minCY + 1
	d.tiles = make([]*tile, d.cols*d.rows)
}

// tileAt returns the chunk containing p, or nil if none was ever occupied
// there.
func (d *Dense) tileAt(p grid.Point) *tile {
	cx := (p.X >> tileShift) - d.minCX
	cy := (p.Y >> tileShift) - d.minCY
	if uint(cx) >= uint(d.cols) || uint(cy) >= uint(d.rows) {
		return nil
	}
	return d.tiles[cy*d.cols+cx]
}

// ensureTile returns the chunk containing p, allocating it (and growing
// the chunk table) as needed.
func (d *Dense) ensureTile(p grid.Point) *tile {
	cx, cy := p.X>>tileShift, p.Y>>tileShift
	ix, iy := cx-d.minCX, cy-d.minCY
	if uint(ix) >= uint(d.cols) || uint(iy) >= uint(d.rows) {
		d.grow(cx, cy)
		ix, iy = cx-d.minCX, cy-d.minCY
	}
	t := d.tiles[iy*d.cols+ix]
	if t == nil {
		t = &tile{cx: cx, cy: cy}
		d.tiles[iy*d.cols+ix] = t
	}
	return t
}

// tileAtChunk returns the chunk at absolute chunk coordinates (cx, cy), or
// nil if none was ever occupied there.
func (d *Dense) tileAtChunk(cx, cy int) *tile {
	ix, iy := cx-d.minCX, cy-d.minCY
	if uint(ix) >= uint(d.cols) || uint(iy) >= uint(d.rows) {
		return nil
	}
	return d.tiles[iy*d.cols+ix]
}

// mark puts t on the layer's live list the first time the layer writes
// into it.
func (d *Dense) mark(layer int, t *tile) {
	if !t.marked[layer] {
		t.marked[layer] = true
		d.live[layer] = append(d.live[layer], t)
	}
}

// grow extends the chunk table to cover chunk (cx, cy) with one chunk of
// fresh margin. Existing tiles keep their identity; only the table moves.
// Only an arrival past the table's margin gets here: construction sizes
// the table to its cells.
func (d *Dense) grow(cx, cy int) {
	minCX := min(d.minCX, cx-1)
	minCY := min(d.minCY, cy-1)
	maxCX := max(d.minCX+d.cols-1, cx+1)
	maxCY := max(d.minCY+d.rows-1, cy+1)
	cols, rows := maxCX-minCX+1, maxCY-minCY+1
	tiles := make([]*tile, cols*rows)
	for y := 0; y < d.rows; y++ {
		copy(tiles[(y+d.minCY-minCY)*cols+(d.minCX-minCX):], d.tiles[y*d.cols:(y+1)*d.cols])
	}
	d.minCX, d.minCY, d.cols, d.rows, d.tiles = minCX, minCY, cols, rows, tiles
}

// Len returns the number of robots.
func (d *Dense) Len() int { return d.count }

// Has reports whether cell p is occupied. This is the view fast path: one
// bounds check, one table index, one bit test — no hashing, no closures.
func (d *Dense) Has(p grid.Point) bool {
	t := d.tileAt(p)
	return t != nil && t.bits[d.cur][p.Y&tileMask]&(1<<uint(p.X&tileMask)) != 0
}

// Block3 returns the occupancy of the 3×3 block of cells centred on p, in
// grid.Block3's bit layout. Away from a chunk edge it is three shifted row
// words of one tile; when the block crosses a chunk seam it reads the nine
// cells one by one. Read-only.
//
//gather:hotpath
func (d *Dense) Block3(p grid.Point) grid.Block3 {
	rx, ry := p.X&tileMask, p.Y&tileMask
	if uint(rx-1) >= tileSize-2 || uint(ry-1) >= tileSize-2 {
		return d.block3Seam(p)
	}
	t := d.tileAt(p)
	if t == nil {
		return 0
	}
	rows, s := &t.bits[d.cur], uint(rx-1)
	return grid.Block3(rows[ry-1]>>s&7 | (rows[ry]>>s&7)<<3 | (rows[ry+1]>>s&7)<<6)
}

// block3Seam is Block3 for a block that crosses a chunk seam: nine cell
// reads.
func (d *Dense) block3Seam(p grid.Point) grid.Block3 {
	var b grid.Block3
	for y := -1; y <= 1; y++ {
		for x := -1; x <= 1; x++ {
			if rel := grid.Pt(x, y); d.Has(p.Add(rel)) {
				b |= grid.Block3Bit(rel)
			}
		}
	}
	return b
}

// lineWord returns t's occupancy word for the tile line through p along
// step's axis: the row word for a horizontal step, the column word for a
// vertical one. Bit lineBit(p, step) of it is p.
func (d *Dense) lineWord(t *tile, p, step grid.Point) uint64 {
	if step.Y == 0 {
		return t.bits[d.cur][p.Y&tileMask]
	}
	return t.cols[d.cur][p.X&tileMask]
}

// lineBit returns p's in-chunk coordinate along step's axis, its bit in
// lineWord.
func lineBit(p, step grid.Point) uint {
	if step.Y == 0 {
		return uint(p.X & tileMask)
	}
	return uint(p.Y & tileMask)
}

// RunLen counts the consecutive occupied cells p+step, p+2·step, … and
// stops at the first free cell or after max cells, so it returns a value
// in [0, max], and 0 when max ≤ 0. step must be a unit axis vector. It
// answers exactly what a Has loop over the same cells would, but counts a
// whole tile line per chunk with one bit scan: a row word along x, a
// column word along y. Read-only.
//
//gather:hotpath
func (d *Dense) RunLen(p, step grid.Point, max int) int {
	if max <= 0 {
		return 0
	}
	n := 0
	q := p.Add(step)
	fwd := step.X+step.Y > 0
	for n < max {
		t := d.tileAt(q)
		if t == nil {
			break
		}
		w, s := d.lineWord(t, q, step), lineBit(q, step)
		var ones, avail int
		if fwd {
			// Bits s.. of the word, shifted down to bit 0; the zeros
			// shifted in at the top end the count at the chunk edge.
			ones, avail = bits.TrailingZeros64(^(w >> s)), tileSize-int(s)
		} else {
			// Bits ..s of the word, shifted up to bit 63.
			ones, avail = bits.LeadingZeros64(^(w << (tileMask - s))), int(s)+1
		}
		n += ones
		if ones < avail {
			break
		}
		q = q.Add(step.Scale(avail))
	}
	return min(n, max)
}

// AnyIn reports whether any of the count cells p, p+step, …,
// p+(count-1)·step is occupied (false when count ≤ 0). step must be a unit
// axis vector. It tests the segment with one masked tile line per chunk it
// spans — row words along x, column words along y — and skips chunks that
// were never allocated. Read-only.
//
//gather:hotpath
func (d *Dense) AnyIn(p, step grid.Point, count int) bool {
	if count <= 0 {
		return false
	}
	if step.X+step.Y < 0 {
		p = p.Add(step.Scale(count - 1))
		step = step.Neg()
	}
	for count > 0 {
		s := lineBit(p, step)
		k := min(count, tileSize-int(s))
		if t := d.tileAt(p); t != nil && d.lineWord(t, p, step)&((uint64(1)<<uint(k)-1)<<s) != 0 {
			return true
		}
		p = p.Add(step.Scale(k))
		count -= k
	}
	return false
}

// slotAt returns the slot stored for p in the given layer. The occupancy
// bit must be set, so p's chunk is in the table and the lookup skips
// tileAt's range check (which keeps slotAt inlinable with the block load).
func (d *Dense) slotAt(layer int, p grid.Point) int32 {
	t := d.tiles[(p.Y>>tileShift-d.minCY)*d.cols+p.X>>tileShift-d.minCX]
	return t.slot(layer, p.X&tileMask, p.Y&tileMask)
}

// SlotAt returns the stable slot of the robot at p. Slots are assigned
// 0..n-1 in sorted cell order at construction, move with their robot, and
// are never reused after a merge, so they identify a robot across rounds.
// Calling it on a free cell is undefined.
func (d *Dense) SlotAt(p grid.Point) int32 { return d.slotAt(d.cur, p) }

// StateAt returns the run state of the robot at p (zero if free). The Runs
// slice aliases the run pool — read-only, valid until the state is
// rewritten; do not retain it across Commit.
func (d *Dense) StateAt(p grid.Point) robot.State {
	t := d.tileAt(p)
	ry, rx := p.Y&tileMask, p.X&tileMask
	if t == nil || t.bits[d.cur][ry]&(1<<uint(rx)) == 0 {
		return robot.State{}
	}
	return d.StateOf(t.slot(d.cur, rx, ry))
}

// StateOf returns the run state of the robot in slot, aliasing the run
// pool like StateAt.
func (d *Dense) StateOf(slot int32) robot.State {
	h := d.runOf[slot]
	if h == 0 {
		return robot.State{}
	}
	s := &d.runPool[h]
	return robot.State{Runs: s.runs[:s.n]}
}

// packState stores st for slot, copying the runs: an empty state releases
// the slot's pool entry, a non-empty one takes an entry if it has none.
func (d *Dense) packState(slot int32, st robot.State) {
	if len(st.Runs) > robot.MaxRuns {
		panic(fmt.Sprintf("world: %d runs exceed robot.MaxRuns", len(st.Runs)))
	}
	if len(st.Runs) == 0 {
		d.dropRuns(slot)
		return
	}
	h := d.runOf[slot]
	if h == 0 {
		h = d.newRunHandle()
		d.runOf[slot] = h
	}
	s := &d.runPool[h]
	s.n = int8(copy(s.runs[:], st.Runs))
}

// newRunHandle returns a free pool entry, reusing released ones first.
func (d *Dense) newRunHandle() uint32 {
	if n := len(d.runFree); n > 0 {
		h := d.runFree[n-1]
		d.runFree = d.runFree[:n-1]
		return h
	}
	// The pool holds only run carriers, a small share of the population;
	// it stops growing once the busiest round's carriers fit.
	d.runPool = append(d.runPool, runState{}) //gather:alloc-ok grows to the peak carrier count, then reuses released entries
	return uint32(len(d.runPool) - 1)
}

// dropRuns clears slot's run state, returning its pool entry.
func (d *Dense) dropRuns(slot int32) {
	if h := d.runOf[slot]; h != 0 {
		d.runOf[slot] = 0
		d.runFree = append(d.runFree, h) //gather:alloc-ok bounded by the pool size, steady-state reuse
	}
}

// SetState overwrites the state of the robot at p in the current round
// (test scaffolding; p must be occupied). The runs are copied.
func (d *Dense) SetState(p grid.Point, st robot.State) {
	d.packState(d.slotAt(d.cur, p), st)
	d.QuiesceReset()
}

// ClockAt returns the logical clock of the robot at p (0 if free or clocks
// are disabled).
func (d *Dense) ClockAt(p grid.Point) int {
	if d.clocks == nil || !d.Has(p) {
		return 0
	}
	return d.clocks[d.slotAt(d.cur, p)]
}

// Bounds returns the smallest enclosing rectangle: set at construction,
// then accumulated by Commit from the round's arrivals, so always exact.
func (d *Dense) Bounds() grid.Rect { return d.bounds }

// Version counts the writes that can change occupancy or crash marks:
// Commit, Crash and EnableCrashes. Construction starts it at 0, and the
// round protocol is the only writer of occupancy. A verdict computed from
// those — the engine's gathered verdict — stays valid while it is
// unchanged.
func (d *Dense) Version() uint64 { return d.version }

// Gathered reports whether the swarm fits in a 2×2 square.
func (d *Dense) Gathered() bool { return d.count > 0 && d.Bounds().FitsIn2x2() }

// Cells returns all occupied cells in sorted (Y, X) order. The slice is
// the world's own cell order, not a copy: read-only, valid until the next
// Commit (the round protocol is the only writer of occupancy, and Commit
// keeps the order exact).
func (d *Dense) Cells() []grid.Point { return d.cells }

// Slots returns the slots aligned with Cells(), same ownership rules.
func (d *Dense) Slots() []int32 { return d.slots }

// SlotCount returns the size of the slot space: every live slot is in
// [0, SlotCount). The space is fixed at construction — robots only move
// and merge, no robot joins — and slots are stable for a robot's lifetime
// and never reused after a merge, so per-slot tables (verdict masks, crash
// marks, the flood scratch) sized once by SlotCount stay valid for the
// whole run.
func (d *Dense) SlotCount() int { return len(d.runOf) }

// --- round protocol ---

// BeginRound resets the next-round arrival buffer.
func (d *Dense) BeginRound() { d.next.reset() }

// Arrive records the activated robot at from landing on dst (from == dst
// for a stay) and returns 1 if it is the sole arrival at dst so far, or 2
// if it merged with earlier arrivals. The robot's runs are dropped: an
// activated robot leaves the round with only the runs it keeps, which the
// engine sets through SetArrivalState, so a robot without runs that keeps
// none costs no state write. The first arrival's slot survives at dst; a
// merge clears any pending state at dst.
//
// Two of these writes are invisible to Commit's occupancy diff, so Arrive
// marks them view-dirty itself: a robot that carried runs changes the
// states its neighbours see at from even if another robot takes its cell,
// and a merge can leave dst occupied while its slot, state and crash mark
// change.
//
//gather:hotpath
func (d *Dense) Arrive(from, dst grid.Point) int { return d.arrive(from, dst, true) }

// arrive is Arrive and Sleep: drop says whether the arriving robot's runs
// end with this round (activated) or stay frozen (sleeping).
//
//gather:hotpath
func (d *Dense) arrive(from, dst grid.Point, drop bool) int {
	slot := d.slotAt(d.cur, from)
	if drop && d.runOf[slot] != 0 {
		d.markViewDirty(from)
	}
	nxt := d.cur ^ 1
	t := d.tileAt(dst)
	if t == nil || !t.marked[nxt] {
		t = d.ensureTile(dst)
		d.mark(nxt, t)
	}
	ry, rx := dst.Y&tileMask, dst.X&tileMask
	b := uint64(1) << uint(rx)
	if t.bits[nxt][ry]&b == 0 {
		t.set(nxt, rx, ry)
		t.setSlot(nxt, rx, ry, slot)
		l := &d.next
		// The arrival buffer was length-reset by lane.reset at round start
		// and reaches swarm-size capacity within the first rounds; growth
		// after that is a cold path the hint analysis cannot see from here.
		l.cells = append(l.cells, dst)  //gather:alloc-ok capacity reset in lane.reset, steady-state reuse
		l.slots = append(l.slots, slot) //gather:alloc-ok capacity reset in lane.reset, steady-state reuse
		l.bounds = l.bounds.Include(dst)
		if drop {
			d.dropRuns(slot)
		}
		return 1
	}
	// A merge: the survivor's pending runs stop (Table 1) and the arriving
	// robot's slot dies with its runs.
	d.markViewDirty(dst)
	t.multi[ry] |= b
	d.dropRuns(t.slot(nxt, rx, ry))
	d.dropRuns(slot)
	return 2
}

// BeginSleep marks the boundary between the activated arrivals (a
// near-sorted prefix) and the sleeper arrivals (an exactly sorted suffix),
// so Commit can repair the prefix and merge the suffix.
func (d *Dense) BeginSleep() { d.next.sleepStart = len(d.next.cells) }

// Sleep records the robot at p staying put. Its runs are not touched —
// frozen for free. Merge handling is as in Arrive.
func (d *Dense) Sleep(p grid.Point) int { return d.arrive(p, p, false) }

// SetArrivalState sets the pending next-round state of the sole robot at
// dst. The runs are copied; an empty state clears. Arrive already cleared
// an activated robot's runs, so only robots that keep or receive runs need
// this call. The new state is marked view-dirty at dst: a robot that keeps,
// adopts or receives runs may not have moved at all.
func (d *Dense) SetArrivalState(dst grid.Point, st robot.State) {
	d.packState(d.slotAt(d.cur^1, dst), st)
	d.markViewDirty(dst)
}

// ArrivalState returns the pending next-round state at dst.
func (d *Dense) ArrivalState(dst grid.Point) robot.State {
	return d.StateOf(d.slotAt(d.cur^1, dst))
}

// ArrivalCount returns how many robots arrived at dst this round: 0
// (none), 1 (sole survivor), or 2 (a merge happened; the exact count
// beyond two is not tracked).
func (d *Dense) ArrivalCount(dst grid.Point) int {
	t := d.tileAt(dst)
	if t == nil {
		return 0
	}
	ry := dst.Y & tileMask
	b := uint64(1) << uint(dst.X&tileMask)
	switch {
	case t.bits[d.cur^1][ry]&b == 0:
		return 0
	case t.multi[ry]&b != 0:
		return 2
	default:
		return 1
	}
}

// RaiseClock raises the pending logical clock of the survivor at dst to at
// least cl. No-op when clocks are disabled. In-place maxing is sound: the
// survivor's own arrival always raises its slot past the stale pre-round
// value before merge partners contribute.
func (d *Dense) RaiseClock(dst grid.Point, cl int) {
	if d.clocks == nil {
		return
	}
	slot := d.slotAt(d.cur^1, dst)
	if cl > d.clocks[slot] {
		d.clocks[slot] = cl
	}
}

// Commit swaps the pending round in: occupancy, states, clocks and the
// sorted cell order all advance to the next round. The arrival lane is
// repaired into the canonical sorted order and its cell and slot arrays
// swapped with the world's, so the outgoing arrays become next round's
// arrival lane — no copy happens in the common no-sleeper round. The
// bounds come from the round's arrivals, and the outgoing layer's
// occupancy words are cleared to become the next round's scratch. Slot
// planes are never cleared (stale entries are unreachable) and the chunk
// table never rebases.
func (d *Dense) Commit() {
	d.next.repair()
	d.cells, d.next.cells = d.next.cells, d.cells[:0]
	d.slots, d.next.slots = d.next.slots, d.slots[:0]
	old := d.cur
	nxt := old ^ 1
	// One tile diff feeds both the incremental connectivity layer and the
	// quiescence dirty planes; it must run before the outgoing layer is
	// cleared (the comparison needs both layers intact).
	d.noteRoundDiff(old, nxt)
	d.clearLayers(old, nxt)
	d.cur = nxt
	d.count = len(d.cells)
	d.bounds = d.next.bounds
	d.version++
}

// clearLayers clears the outgoing layer (it becomes the next round's
// scratch) and the round's multi plane, touching only the tiles each layer
// actually wrote — as the swarm contracts, this tracks the live tiles, not
// the initial bounds.
//
//gather:hotpath
func (d *Dense) clearLayers(old, nxt int) {
	for _, t := range d.live[old] {
		t.bits[old] = [tileSize]uint64{}
		t.cols[old] = [tileSize]uint64{}
		t.marked[old] = false
	}
	for _, t := range d.live[nxt] {
		t.multi = [tileSize]uint64{}
	}
	d.live[old] = d.live[old][:0]
}

// sortNearSorted sorts cells by (Y, X), moving each slot with its cell,
// with an insertion pass that is O(n + inversions) — linear on the
// engine's near-sorted arrival streams. A shift budget bounds pathological
// rounds: past it, the remainder is handed to the standard sort (keys are
// unique, so the result is deterministic either way).
func sortNearSorted(cells []grid.Point, slots []int32) {
	budget := 8*len(cells) + 64
	for i := 1; i < len(cells); i++ {
		p, s := cells[i], slots[i]
		j := i - 1
		if !p.Less(cells[j]) {
			continue
		}
		for j >= 0 && p.Less(cells[j]) {
			cells[j+1], slots[j+1] = cells[j], slots[j]
			j--
			budget--
			if budget < 0 {
				cells[j+1], slots[j+1] = p, s
				sort.Sort(cellOrder{cells, slots})
				return
			}
		}
		cells[j+1], slots[j+1] = p, s
	}
}

// cellOrder sorts parallel cell and slot arrays by cell.
type cellOrder struct {
	cells []grid.Point
	slots []int32
}

func (o cellOrder) Len() int           { return len(o.cells) }
func (o cellOrder) Less(i, j int) bool { return o.cells[i].Less(o.cells[j]) }
func (o cellOrder) Swap(i, j int) {
	o.cells[i], o.cells[j] = o.cells[j], o.cells[i]
	o.slots[i], o.slots[j] = o.slots[j], o.slots[i]
}

// --- snapshot codec ---

// AppendState appends the world's complete resumable state: the slot-space
// size, whether logical clocks are tracked, and every robot in canonical
// cell order with its cell, slot, run state and clock. Chunk-table layout,
// the arrival buffer and scratch are not state — they are rebuilt on decode —
// so the encoding is deterministic: equal worlds produce equal bytes.
// Call it only between rounds (never mid-protocol).
func (d *Dense) AppendState(b []byte) []byte {
	b = codec.AppendUvarint(b, uint64(len(d.runOf)))
	b = codec.AppendBool(b, d.clocks != nil)
	b = codec.AppendUvarint(b, uint64(len(d.cells)))
	for i, p := range d.cells {
		slot := d.slots[i]
		b = codec.AppendInt(b, p.X)
		b = codec.AppendInt(b, p.Y)
		b = codec.AppendUvarint(b, uint64(slot))
		runs := d.StateOf(slot).Runs
		b = codec.AppendUvarint(b, uint64(len(runs)))
		for _, r := range runs {
			b = appendRun(b, r)
		}
		if d.clocks != nil {
			b = codec.AppendUvarint(b, uint64(d.clocks[slot]))
		}
	}
	return b
}

func appendRun(b []byte, r robot.Run) []byte {
	b = codec.AppendUvarint(b, uint64(r.ID))
	b = codec.AppendInt(b, r.Dir.X)
	b = codec.AppendInt(b, r.Dir.Y)
	b = codec.AppendInt(b, r.Inside.X)
	b = codec.AppendInt(b, r.Inside.Y)
	b = codec.AppendUvarint(b, uint64(r.Phase))
	b = codec.AppendUvarint(b, uint64(r.StepsLeft))
	b = codec.AppendUvarint(b, uint64(r.Age))
	return b
}

func decodeRun(r *codec.Reader) robot.Run {
	return robot.Run{
		ID:        int(r.Uvarint()),
		Dir:       grid.Pt(r.Int(), r.Int()),
		Inside:    grid.Pt(r.Int(), r.Int()),
		Phase:     robot.Phase(r.Uvarint()),
		StepsLeft: int(r.Uvarint()),
		Age:       int(r.Uvarint()),
	}
}

// ErrDuplicateSlot reports a snapshot in which two robots claim the same
// slot. Slots identify robots (run state, crash mark, quiescent verdict),
// so such a world cannot be resumed.
var ErrDuplicateSlot = errors.New("world: snapshot reuses a slot")

// SlotSpace returns the slot-space size a snapshot written by AppendState
// declares, reading only its first field. DecodeDense allocates per slot,
// so a caller holding its own expectation of the slot space — a session's
// initial population — checks it here before decoding.
func SlotSpace(b []byte) (uint64, error) {
	r := codec.NewReader(b)
	n := r.Uvarint()
	return n, r.Err()
}

// DecodeDense rebuilds a world from a snapshot written by AppendState and
// returns it with the unread remainder of b. withClocks must match the
// configuration the snapshot was taken under (the engine derives it from
// its scheduler). A mismatch, a truncated stream or structurally invalid
// data is an error: cells out of canonical order or beyond grid.MaxCoord,
// slots outside the encoded slot space or claimed twice (ErrDuplicateSlot),
// too many runs, runs no engine could have produced, or a bounding box
// wider than the slot space allows. The decoded world is bit-equivalent
// to the encoded one for every future round.
//
// Snapshots may come from outside the process (gatherd accepts uploads),
// so nothing here is trusted — except the slot space, which sizes the
// per-slot tables: callers bound it first (see SlotSpace).
func DecodeDense(b []byte, withClocks bool) (*Dense, []byte, error) {
	r := codec.NewReader(b)
	numSlots := r.Uvarint()
	hasClocks := r.Bool()
	count := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	if hasClocks != withClocks {
		return nil, nil, fmt.Errorf("world: snapshot clocks=%v, configuration wants %v", hasClocks, withClocks)
	}
	if count > numSlots {
		return nil, nil, fmt.Errorf("world: snapshot has %d robots in %d slots", count, numSlots)
	}
	if numSlots > math.MaxInt32 {
		return nil, nil, fmt.Errorf("world: snapshot slot space %d exceeds int32", numSlots)
	}
	if count > uint64(r.Len()) { // every live robot takes ≥ 1 byte
		return nil, nil, fmt.Errorf("world: snapshot claims %d robots in %d bytes", count, r.Len())
	}
	d := newDenseSlots(int(numSlots), withClocks)
	d.cells = make([]grid.Point, 0, count)
	d.slots = make([]int32, 0, count)
	seen := make([]uint64, (numSlots+63)/64)
	bounds := grid.EmptyRect
	var prev grid.Point
	for i := uint64(0); i < count; i++ {
		p := grid.Pt(r.Int(), r.Int())
		slot := r.Uvarint()
		nruns := r.Uvarint()
		if err := r.Err(); err != nil {
			return nil, nil, err
		}
		if !p.InRange() {
			return nil, nil, fmt.Errorf("world: snapshot cell %v beyond ±2^62", p)
		}
		if i > 0 && !prev.Less(p) {
			return nil, nil, fmt.Errorf("world: snapshot cells out of canonical order at %v", p)
		}
		prev = p
		if slot >= numSlots {
			return nil, nil, fmt.Errorf("world: snapshot slot %d outside %d slots", slot, numSlots)
		}
		bit := uint64(1) << (slot & 63)
		if seen[slot>>6]&bit != 0 {
			return nil, nil, fmt.Errorf("%w: slot %d at %v", ErrDuplicateSlot, slot, p)
		}
		seen[slot>>6] |= bit
		if nruns > robot.MaxRuns {
			return nil, nil, fmt.Errorf("world: snapshot robot at %v holds %d runs (max %d)", p, nruns, robot.MaxRuns)
		}
		if nruns > 0 {
			var st runState
			st.n = int8(nruns)
			for j := range st.runs[:nruns] {
				st.runs[j] = decodeRun(r)
				if err := checkRun(st.runs[j]); err != nil && r.Err() == nil {
					return nil, nil, fmt.Errorf("world: snapshot robot at %v: %v", p, err)
				}
			}
			h := d.newRunHandle()
			d.runPool[h] = st
			d.runOf[slot] = h
		}
		if withClocks {
			d.clocks[slot] = int(r.Uvarint())
		}
		if err := r.Err(); err != nil {
			return nil, nil, err
		}
		d.cells = append(d.cells, p)
		d.slots = append(d.slots, int32(slot))
		bounds = bounds.Include(p)
	}
	if !bounds.Empty() {
		// A swarm starts connected, so its bounding box has a semi-perimeter
		// below its population, and gathering only contracts it. The bound
		// keeps the chunk table, which covers the box, no larger than a
		// world built from as many robots: a stray coordinate cannot make
		// it reserve memory for an empty plane.
		w, h := uint64(bounds.MaxX-bounds.MinX), uint64(bounds.MaxY-bounds.MinY)
		if lim := numSlots + 2*tileSize; w > lim || h > lim || w+h > lim {
			return nil, nil, fmt.Errorf("world: snapshot bounds %+v too wide for %d slots", bounds, numSlots)
		}
	}
	d.place(bounds)
	return d, r.Rest(), nil
}

// checkRun rejects a decoded run no engine could have produced: runs
// glide along an axis direction with the swarm's inside perpendicular to
// it, and carry an engine-assigned ID.
func checkRun(r robot.Run) error {
	switch {
	case r.ID < 1:
		return fmt.Errorf("run ID %d", r.ID)
	case !isAxisUnit(r.Dir) || !isAxisUnit(r.Inside) || r.Dir.X*r.Inside.X+r.Dir.Y*r.Inside.Y != 0:
		return fmt.Errorf("run direction %v with inside %v", r.Dir, r.Inside)
	case r.Phase != robot.PhaseRoll && r.Phase != robot.PhasePassing:
		return fmt.Errorf("run phase %d", r.Phase)
	case r.StepsLeft < 0 || r.Age < 0:
		return fmt.Errorf("run steps left %d, age %d", r.StepsLeft, r.Age)
	}
	return nil
}

func isAxisUnit(p grid.Point) bool {
	return (p.X == 0) != (p.Y == 0) && p.X >= -1 && p.X <= 1 && p.Y >= -1 && p.Y <= 1
}

// --- crash marks ---

// EnableCrashes allocates the per-slot crash-stop marks, all clear. The
// engine enables them once when its fault plan can crash robots; without
// them Crashed and CrashedAt always report false.
func (d *Dense) EnableCrashes() {
	d.crashed = make([]bool, len(d.runOf))
	d.version++
}

// Crash marks the robot at p crash-stopped (p must be occupied and crashes
// enabled). The mark belongs to the robot's slot and dies with it when a
// live robot merges onto the cell. Views see crash marks, so the cell is
// marked view-dirty.
func (d *Dense) Crash(p grid.Point) {
	d.crashed[d.SlotAt(p)] = true
	d.markViewDirty(p)
	d.version++
}

// Crashed reports whether the robot in slot has crash-stopped.
func (d *Dense) Crashed(slot int32) bool { return d.crashed != nil && d.crashed[slot] }

// CrashedAt reports whether cell p holds a crash-stopped robot: the
// failure detector views expose to algorithms. Read-only.
func (d *Dense) CrashedAt(p grid.Point) bool {
	return d.crashed != nil && d.Has(p) && d.crashed[d.SlotAt(p)]
}

// --- connectivity ---

// Connected reports 4-connectivity through the incremental connectivity
// layer (see connincr.go): per-chunk component labels maintained only for
// chunks whose occupancy changed, plus a small union-find over the
// chunk-boundary seam links — so a round where little moved costs far
// less than a full scan. ConnectedBFS is its reference; the suites here
// and in internal/fsync hold the two equal answer for answer.
func (d *Dense) Connected() bool {
	if d.count <= 1 {
		return true
	}
	return d.connReady().query(d)
}

// ConnStats returns the incremental connectivity layer's counters (zero
// if the layer was never queried).
func (d *Dense) ConnStats() ConnStats {
	if d.conn == nil {
		return ConnStats{}
	}
	return d.conn.stats
}

// ConnectedBFS reports 4-connectivity with a scratch flood of the bitset,
// reusing internal scratch so the check allocates nothing in steady state.
// It is the incremental layer's reference.
func (d *Dense) ConnectedBFS() bool {
	if len(d.cells) <= 1 {
		return true
	}
	d.clearVis()
	d.visit(d.slots[0])
	n, _ := d.flood(d.cells[0], false)
	return n == len(d.cells)
}

// LargestLiveComponent returns the live-cell count and live-cell bounding
// box of the 4-connected component holding the most live robots. It floods
// every component in canonical cell order and keeps the first with the
// most live cells, so ties go to the component whose canonical minimum
// cell is smallest. It answers the engine's degraded-mode gathering
// question — in which component should the survivors gather? — where a
// cell-count ranking is wrong: a stranded heap of crashed robots can
// outrank the split-off survivors, yet can never gather. A robot is live
// unless Crash marked it. Always a scratch flood, whether or not any
// crashed robot is present; it runs only in degraded rounds, off the
// fault-free hot path.
func (d *Dense) LargestLiveComponent() (n int, bounds grid.Rect) {
	d.clearVis()
	bounds = grid.EmptyRect
	for i, p := range d.cells {
		if !d.visit(d.slots[i]) {
			continue
		}
		if cn, cb := d.flood(p, true); cn > n {
			n, bounds = cn, cb
		}
	}
	return n, bounds
}

// clearVis clears the flood scratch, allocating it on the first flood: one
// bit per slot, sized once because the slot space is fixed.
func (d *Dense) clearVis() {
	if d.vis == nil {
		d.vis = make([]uint64, (len(d.runOf)+63)/64)
		return
	}
	clear(d.vis)
}

// visit marks slot visited in the flood scratch and reports whether it was
// unvisited.
func (d *Dense) visit(slot int32) bool {
	w, b := &d.vis[slot>>6], uint64(1)<<uint(slot&63)
	if *w&b != 0 {
		return false
	}
	*w |= b
	return true
}

// flood visits the 4-connected component of start, whose slot the caller
// has already marked visited (after clearing the scratch), and returns how
// many of its cells count — every cell, or only the live ones when
// liveOnly is set — and their bounding box.
func (d *Dense) flood(start grid.Point, liveOnly bool) (n int, bounds grid.Rect) {
	bounds = grid.EmptyRect
	stack := append(d.stack[:0], start)
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !liveOnly || !d.Crashed(d.SlotAt(p)) {
			n++
			bounds = bounds.Include(p)
		}
		for _, q := range grid.Neighbors4(p) {
			if d.Has(q) && d.visit(d.SlotAt(q)) {
				stack = append(stack, q)
			}
		}
	}
	d.stack = stack[:0]
	return n, bounds
}
