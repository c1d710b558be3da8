package world

import (
	"fmt"
	"math/bits"
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

// ColumnsMismatch returns an error naming the first allocated tile layer
// whose column words are not exactly the transpose of its row words, or
// nil when every layer of every allocated tile agrees.
func (d *Dense) ColumnsMismatch() error {
	for _, t := range d.tiles {
		if t == nil {
			continue
		}
		for layer := range t.bits {
			var want [tileSize]uint64
			for y, w := range t.bits[layer] {
				for ; w != 0; w &= w - 1 {
					want[bits.TrailingZeros64(w)] |= 1 << uint(y)
				}
			}
			if want != t.cols[layer] {
				return fmt.Errorf("world: chunk (%d, %d) layer %d: column words are not the transpose of the row words", t.cx, t.cy, layer)
			}
		}
	}
	return nil
}

// SlotBlocks returns the number of 8×8 slot blocks allocated over every
// tile and both layers.
func (d *Dense) SlotBlocks() int {
	n := 0
	for _, t := range d.tiles {
		if t == nil {
			continue
		}
		for _, layer := range t.slots {
			for _, b := range layer {
				if b != nil {
					n++
				}
			}
		}
	}
	return n
}
