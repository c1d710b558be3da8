package world

import (
	"fmt"
	"math/bits"
)

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
