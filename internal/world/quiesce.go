// Quiescence layer: the world-side half of the engine's dirty-region
// activation (see internal/fsync). The paper's strategy only moves robots
// on or near the swarm's boundary, so in a dense swarm almost every robot
// recomputes "stay put" every round. This layer lets the engine skip those
// recomputations soundly:
//
//   - Commit's occupancy diff (noteEdits, shared with incremental
//     connectivity) compares every row the round wrote with its pre-round
//     word and dilates each changed cell by the view radius into per-tile
//     qdirty planes — a cumulative "your view may have changed" mark per
//     cell, cleared only when the robot on the cell actually recomputes.
//     Stayers are never written, so the diff costs nothing for them.
//   - qmask caches, per slot and per round phase (round mod the
//     algorithm's period), whether the robot's last clean recompute
//     returned the quiescent action (stay, keep nothing, transfer
//     nothing). The engine consults QuiesceSkip for each activation and,
//     when it computed on a noise-free view, records the verdict through
//     QuiesceNote in the same step.
//
// Division of labor: the world marks every write a view can observe, and
// the engine marks nothing. Occupancy is not everything a view can see, so
// the world's own writes that leave occupancy unchanged mark themselves
// (markViewDirty): Arrive marks the cell an activated robot carrying runs
// leaves (its runs end, age or move on), Land marks every merge's cell
// (its slot, state and crash mark change), SetArrivalState marks kept,
// adopted and delivered runs, and Crash marks the crashed robot's cell.
// The engine only asks (QuiesceSkip) and reports verdicts (QuiesceNote).
// The round protocol is the only writer of occupancy, so the diff sees
// every occupancy change; the one edit outside it, SetState (test
// scaffolding that rewrites a robot's runs), conservatively resets every
// cached verdict via QuiesceReset.
//
//gather:deterministic
package world

import "gridgather/internal/grid"

// EnableQuiescence switches the commit-time row diff into view-dilation
// mode with the given view radius (L∞, 1..63) and allocates the per-slot
// verdict masks. All masks start empty, so every robot recomputes until
// its first clean verdict is recorded — a restore or a fresh world is
// always sound. The engine enables this once at construction; radius 0
// disables.
func (d *Dense) EnableQuiescence(radius int) {
	if radius <= 0 || radius > tileMask {
		d.qOn = false
		d.qmask = nil
		return
	}
	d.qOn = true
	d.qRadius = radius
	d.qmask = make([]uint32, len(d.runOf))
}

// QuiesceReset drops every cached quiescent verdict: the next activation
// of every robot recomputes. Dirty bits need no touch-up — an empty mask
// alone forces recomputation. Occupancy changes only through the round
// protocol, whose writes mark themselves, so the callers are the edits
// outside it that a view or a phase can observe: SetState (run-state
// scaffolding for tests) and the engine's round jump. The mask table is
// sized once, the slot space being fixed.
func (d *Dense) QuiesceReset() {
	for i := range d.qmask {
		d.qmask[i] = 0
	}
}

// HasRuns reports whether the robot in slot carries any active runs: one
// 4-byte handle read. Read-only.
func (d *Dense) HasRuns(slot int32) bool { return d.runOf[slot] != 0 }

// QuiesceSkip reports whether the robot in slot, standing at p, may skip
// Look+Compute this activation: its cell is clean (no occupancy change
// landed within the view radius since its last recompute), its cached
// verdict for this round phase is "quiescent", and it still carries no
// runs. The caller passes the slot it already holds, so the test reads
// the cell's dirty bit and the slot's tables and no slot plane.
// Read-only.
//
//gather:hotpath
func (d *Dense) QuiesceSkip(p grid.Point, slot int32, phase int) bool {
	t := d.tileAt(p)
	if t.qdirty[p.Y&tileMask]&(1<<uint(p.X&tileMask)) != 0 {
		return false
	}
	return d.qmask[slot]&(1<<uint(phase)) != 0 && d.runOf[slot] == 0
}

// QuiesceNote records the verdict of a clean recompute for the robot in
// slot, standing at p: the cell's dirty bit is consumed (test-and-clear),
// a consumed dirty bit invalidates every phase's cached verdict (the view
// changed — the other phases were judged against the old view), and the
// current phase's bit is set or cleared per the fresh verdict. It writes
// only p's dirty bit and slot's mask, which no other robot's QuiesceSkip
// reads, so the engine may record each verdict as soon as the robot has
// computed, before the round's remaining robots are asked. The engine must
// NOT call this for activations whose view was perturbed by sensor noise —
// the verdict would describe the flipped view, not the real one.
func (d *Dense) QuiesceNote(p grid.Point, slot int32, phase int, quiescent bool) {
	t := d.tileAt(p)
	ry := p.Y & tileMask
	b := uint64(1) << uint(p.X&tileMask)
	if t.qdirty[ry]&b != 0 {
		t.qdirty[ry] &^= b
		d.qmask[slot] = 0
	}
	if quiescent {
		d.qmask[slot] |= 1 << uint(phase)
	} else {
		d.qmask[slot] &^= 1 << uint(phase)
	}
}

// markViewDirty dirties every cell whose view includes p: the mark for a
// world write the occupancy diff cannot see (run rewrites on
// occupancy-stable cells, transfers, merges onto stayers, crashes). The
// round-protocol marks land in Resolve, after the round's verdicts were
// recorded, so no QuiesceNote consumes one before the next round's skip
// test reads it; a crash lands before Compute, so this round's skip tests
// already see it.
func (d *Dense) markViewDirty(p grid.Point) {
	if !d.qOn {
		return
	}
	lo, mid, hi := qsmear(0, 1<<uint(p.X&tileMask), 0, d.qRadius)
	d.qdilateRow(p.X>>tileShift, p.Y, lo, mid, hi)
}

// noteEdits is Commit's occupancy diff, fed by the rows the round wrote
// rather than by every live tile: each written row is compared with its
// pre-round word, a changed row queues its chunk for the incremental
// connectivity relabel (once a query has built that layer) and, when
// quiescence is on, is dilated by the view radius into the qdirty planes.
// The row's index entry is cleared and the edit list emptied, which drops
// the round's scratch with it. A row that was written and restored — a
// swap, a robot stepping out of a cell another steps into — changed
// nothing and marks nothing.
//
//gather:hotpath
func (d *Dense) noteEdits() {
	for _, e := range d.edits {
		t := e.t
		t.edit[e.ry] = 0
		w := e.old ^ t.bits[e.ry]
		if w == 0 {
			continue
		}
		if d.conn != nil {
			d.conn.markDirty(t)
		}
		if d.qOn {
			lo, mid, hi := qsmear(0, w, 0, d.qRadius)
			d.qdilateRow(t.cx, t.cy<<tileShift|e.ry, lo, mid, hi)
		}
	}
	d.edits = d.edits[:0]
}

// qsmear dilates the set bits of the 192-bit window (lo, mid, hi) by r
// positions in both directions along x. Doubling shifts: after the set has
// been widened by c, every original bit owns a contiguous interval of
// width ≥ c+1 on each side, so the next shift may be up to c+1 without
// leaving gaps — ⌈log r⌉ rounds instead of r.
func qsmear(lo, mid, hi uint64, r int) (uint64, uint64, uint64) {
	for c, k := 0, 1; c < r; {
		if k > r-c {
			k = r - c
		}
		llo := lo << uint(k)
		lmid := mid<<uint(k) | lo>>uint(64-k)
		lhi := hi<<uint(k) | mid>>uint(64-k)
		rhi := hi >> uint(k)
		rmid := mid>>uint(k) | hi<<uint(64-k)
		rlo := lo>>uint(k) | mid<<uint(64-k)
		lo |= llo | rlo
		mid |= lmid | rmid
		hi |= lhi | rhi
		c += k
		k = c + 1
	}
	return lo, mid, hi
}

// qdilateRow ORs the dilated row mask (lo, mid, hi — chunk columns cx-1,
// cx, cx+1) into the qdirty planes of every row within the view radius of
// absolute row y. Nil tiles are skipped soundly: no robot lives there, and
// tiles are never deallocated, so any robot whose view spans the region
// has a live tile that does get marked.
func (d *Dense) qdilateRow(cx, y int, lo, mid, hi uint64) {
	r := d.qRadius
	y0, y1 := y-r, y+r
	cy0, cy1 := y0>>tileShift, y1>>tileShift
	for cy := cy0; cy <= cy1; cy++ {
		ry0, ry1 := 0, tileMask
		if cy == cy0 {
			ry0 = y0 & tileMask
		}
		if cy == cy1 {
			ry1 = y1 & tileMask
		}
		qdirtyCol(d.tileAtChunk(cx-1, cy), ry0, ry1, lo)
		qdirtyCol(d.tileAtChunk(cx, cy), ry0, ry1, mid)
		qdirtyCol(d.tileAtChunk(cx+1, cy), ry0, ry1, hi)
	}
}

// qdirtyCol ORs w into rows ry0..ry1 of t's qdirty plane.
func qdirtyCol(t *tile, ry0, ry1 int, w uint64) {
	if t == nil || w == 0 {
		return
	}
	for ry := ry0; ry <= ry1; ry++ {
		t.qdirty[ry] |= w
	}
}
