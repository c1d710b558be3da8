package world

import (
	"fmt"
	"math/bits"

	"gridgather/internal/grid"
)

// SlotsMismatch returns an error naming the first index of the cell order
// whose slot is not the one the tile plane holds at its cell or repeats an
// earlier slot, or nil when Slots is aligned with Cells.
func (d *Dense) SlotsMismatch() error {
	cells, slots := d.Cells(), d.Slots()
	if len(cells) != len(slots) {
		return fmt.Errorf("world: %d cells, %d slots", len(cells), len(slots))
	}
	seen := make(map[int32]bool, len(slots))
	for i, p := range cells {
		if !d.Has(p) {
			return fmt.Errorf("world: Cells()[%d] = %v is free", i, p)
		}
		if got := d.SlotAt(p); slots[i] != got {
			return fmt.Errorf("world: Slots()[%d] = %d, the tile plane holds %d at %v", i, slots[i], got, p)
		}
		if seen[slots[i]] {
			return fmt.Errorf("world: Slots()[%d] = %d repeats an earlier slot", i, slots[i])
		}
		seen[slots[i]] = true
	}
	return nil
}

// ColumnsMismatch returns an error naming the first allocated tile whose
// column words are not exactly the transpose of its row words, or whose
// occupied-column mask or live-list entry disagrees with them, or nil when
// every allocated tile agrees.
func (d *Dense) ColumnsMismatch() error {
	live := 0
	for _, t := range d.tiles {
		if t == nil {
			continue
		}
		var want [tileSize]uint64
		for y, w := range t.bits {
			for ; w != 0; w &= w - 1 {
				want[bits.TrailingZeros64(w)] |= 1 << uint(y)
			}
		}
		if want != t.cols {
			return fmt.Errorf("world: chunk (%d, %d): column words are not the transpose of the row words", t.cx, t.cy)
		}
		var occ uint64
		for x, w := range t.cols {
			if w != 0 {
				occ |= 1 << uint(x)
			}
		}
		if occ != t.occCols {
			return fmt.Errorf("world: chunk (%d, %d): occupied-column mask %#x, columns say %#x", t.cx, t.cy, t.occCols, occ)
		}
		if (occ != 0) != (t.live != 0) || t.live != 0 && d.live[t.live-1] != t {
			return fmt.Errorf("world: chunk (%d, %d): live entry %d does not match its occupancy", t.cx, t.cy, t.live)
		}
		if occ != 0 {
			live++
		}
	}
	if live != len(d.live) {
		return fmt.Errorf("world: %d live tiles listed, %d occupied", len(d.live), live)
	}
	return nil
}

// SlotBlocks returns the number of 8×8 slot blocks allocated over every
// tile.
func (d *Dense) SlotBlocks() int {
	n := 0
	for _, t := range d.tiles {
		if t == nil {
			continue
		}
		for _, b := range t.slots {
			if b != nil {
				n++
			}
		}
	}
	return n
}

// dirty reports whether p's quiescence dirty bit is set (p's chunk must be
// allocated).
func (d *Dense) dirty(p grid.Point) bool {
	return d.tileAt(p).qdirty[p.Y&tileMask]&(1<<uint(p.X&tileMask)) != 0
}

// clearDirty clears every quiescence dirty bit.
func (d *Dense) clearDirty() {
	for _, t := range d.tiles {
		if t != nil {
			t.qdirty = [tileSize]uint64{}
		}
	}
}

// RoundScratchMismatch returns an error naming the first place the round
// scratch outlived Commit — a non-empty edit or landing list, or an
// allocated tile whose row-edit index still names a row — or nil when
// every row-edit record and index entry was dropped.
func (d *Dense) RoundScratchMismatch() error {
	if len(d.edits) != 0 || len(d.moves) != 0 || len(d.lands) != 0 {
		return fmt.Errorf("world: %d edits, %d moves, %d landings left after Commit", len(d.edits), len(d.moves), len(d.lands))
	}
	for _, t := range d.tiles {
		if t == nil {
			continue
		}
		for ry, i := range t.edit {
			if i != 0 {
				return fmt.Errorf("world: chunk (%d, %d) row %d still indexes edit %d after Commit", t.cx, t.cy, ry, i)
			}
		}
	}
	return nil
}

// ConnMismatch returns an error naming the first allocated tile that
// carries connectivity state while empty, or lacks it while live, or nil
// when exactly the live tiles carry a chunkConn (no tile does before the
// first query). A tile still queued for the next query's relabel is
// skipped: Connected answers a world of at most one robot without
// draining the queue.
func (d *Dense) ConnMismatch() error {
	for _, t := range d.tiles {
		if t == nil || t.connDirty {
			continue
		}
		if want := d.conn != nil && t.live != 0; (t.conn != nil) != want {
			return fmt.Errorf("world: chunk (%d, %d) live=%v carries connectivity state %v", t.cx, t.cy, t.live != 0, t.conn != nil)
		}
	}
	return nil
}
