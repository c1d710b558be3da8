package world

import (
	"math/rand"
	"testing"

	"gridgather/internal/grid"
	"gridgather/internal/swarm"
)

// TestQsmear checks the doubling smear against a naive per-bit dilation
// for random 192-bit windows across every radius the layer accepts.
func TestQsmear(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for r := 1; r <= tileMask; r++ {
		for trial := 0; trial < 50; trial++ {
			lo, mid, hi := rng.Uint64(), rng.Uint64(), rng.Uint64()
			if trial == 0 {
				lo, hi = 0, 0
				mid = 1 << uint(rng.Intn(64))
			}
			wantLo, wantMid, wantHi := uint64(0), uint64(0), uint64(0)
			for b := 0; b < 192; b++ {
				w := [3]uint64{lo, mid, hi}
				if w[b/64]&(1<<uint(b%64)) == 0 {
					continue
				}
				for d := -r; d <= r; d++ {
					if p := b + d; p >= 0 && p < 192 {
						switch p / 64 {
						case 0:
							wantLo |= 1 << uint(p%64)
						case 1:
							wantMid |= 1 << uint(p%64)
						default:
							wantHi |= 1 << uint(p%64)
						}
					}
				}
			}
			gotLo, gotMid, gotHi := qsmear(lo, mid, hi, r)
			if gotLo != wantLo || gotMid != wantMid || gotHi != wantHi {
				t.Fatalf("r=%d (%#x,%#x,%#x): qsmear = (%#x,%#x,%#x), want (%#x,%#x,%#x)",
					r, lo, mid, hi, gotLo, gotMid, gotHi, wantLo, wantMid, wantHi)
			}
		}
	}
}

// qWindow fingerprints the occupancy within L∞ radius r of p — everything
// the quiescence contract promises a clean cell's robot has already seen.
func qWindow(d *Dense, p grid.Point, r int) uint64 {
	sig := uint64(1)
	for dy := -r; dy <= r; dy++ {
		for dx := -r; dx <= r; dx++ {
			sig *= 131
			if d.Has(grid.Pt(p.X+dx, p.Y+dy)) {
				sig |= 1
			}
		}
	}
	return sig
}

// qCheck is the soundness oracle pass: a robot whose cell QuiesceSkip
// clears must have an occupancy window identical to the one cached at its
// last recorded verdict; every other robot "recomputes" — recaches its
// window and records a fresh quiescent verdict.
func qCheck(t *testing.T, d *Dense, r int, cached map[int32]uint64) {
	t.Helper()
	cells := d.Cells()
	slots := d.Slots()
	for i, p := range cells {
		slot := slots[i]
		sig := qWindow(d, p, r)
		if d.QuiesceSkip(p, slot, 0) {
			if want, ok := cached[slot]; !ok || want != sig {
				t.Fatalf("slot %d at %v skipped but its view changed (cached %#x, now %#x)",
					slot, p, want, sig)
			}
			continue
		}
		cached[slot] = sig
		d.QuiesceNote(p, slot, 0, true)
	}
}

// FuzzQuiescenceSoundness drives random L∞ ≤ 1 move rounds, ad-hoc
// Add/Remove edits and explicit MarkViewDirty calls through the round
// protocol, asserting after every operation that the recompute set is a
// superset of the robots whose views actually changed: QuiesceSkip may
// clear a robot only if its radius-window occupancy is bit-identical to
// the window it last recomputed against. The seed corpus covers chunk
// seams (the initial cluster sits at the 0/63/64 boundary) and merges.
func FuzzQuiescenceSoundness(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 3, 0, 2, 5, 1, 10, 10, 0, 3, 7})
	f.Add([]byte{2, 0, 0, 3, 1, 1, 0, 4, 4, 0, 5, 8, 0, 6, 2})
	f.Add([]byte{1, 200, 200, 0, 7, 6, 0, 7, 6, 0, 7, 6, 2, 200, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const radius = 3
		s := swarm.New()
		// A cluster straddling the chunk seam at 64, so dilation crosses
		// tile boundaries from the first operation.
		for y := 61; y < 67; y++ {
			for x := 61; x < 67; x++ {
				s.Add(grid.Pt(x, y))
			}
		}
		d := NewDense(s, false)
		d.EnableQuiescence(radius)
		cached := make(map[int32]uint64)
		qCheck(t, d, radius, cached)

		for i := 0; i+2 < len(data) && i < 3*120; i += 3 {
			op, a, b := data[i], data[i+1], data[i+2]
			switch op & 3 {
			case 0: // one robot moves L∞ ≤ 1, everyone else stays
				cells := d.Cells()
				if len(cells) == 0 {
					return
				}
				mover := int(a) % len(cells)
				dir := grid.Pt(int(b%3)-1, int(b/3%3)-1)
				d.BeginRound()
				for j, p := range cells {
					dst := p
					if j == mover {
						dst = p.Add(dir)
					}
					d.Arrive(p, dst)
				}
				d.Commit()
			case 1: // ad-hoc Add near the cluster (resets every verdict)
				d.Add(grid.Pt(58+int(a)%12, 58+int(b)%12))
			case 2: // ad-hoc Remove (resets every verdict)
				cells := d.Cells()
				if len(cells) == 0 {
					return
				}
				d.Remove(cells[int(a)%len(cells)])
			case 3: // engine-style targeted mark: must force recompute nearby
				d.MarkViewDirty(grid.Pt(58+int(a)%12, 58+int(b)%12))
			}
			qCheck(t, d, radius, cached)
		}
	})
}
