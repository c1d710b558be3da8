package world

import (
	"sort"
	"testing"

	"gridgather/internal/grid"
	"gridgather/internal/swarm"
)

// FuzzOccupancy builds Dense from arbitrary cell sets and holds it to the
// swarm oracle. The set is an add/remove stream applied to the oracle; each
// op is three bytes: a control byte (bit 0 remove, bit 1 stretch the
// coordinates far apart, so the chunk table spans a wide, sparse box) and
// two signed coordinate bytes. The world is built from the oracle's cells
// once the stream ends. The seed corpus covers the chunk seams at 0/63/64
// and the negative quadrants; `go test` replays it on every run.
func FuzzOccupancy(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 63, 63, 0, 64, 64, 1, 63, 63})
	f.Add([]byte{0, 255, 255, 0, 192, 192, 2, 100, 100, 2, 156, 156})
	f.Add([]byte{0, 1, 0, 0, 2, 0, 1, 1, 0, 0, 3, 0, 2, 80, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := swarm.New()
		var probes []grid.Point
		for i := 0; i+2 < len(data) && i < 3*200; i += 3 {
			x, y := int(int8(data[i+1])), int(int8(data[i+2]))
			if data[i]&2 != 0 {
				x *= 97
				y *= 131
			}
			p := grid.Pt(x, y)
			probes = append(probes, p)
			if data[i]&1 == 0 {
				s.Add(p)
			} else {
				s.Remove(p)
			}
		}
		checkAgainstOracle(t, NewDense(s.Cells(), false), s, probes)
	})
}

// FuzzRoundProtocol drives random rounds through the round protocol —
// BeginRound, Arrive for the activated robots, BeginSleep, Sleep for the
// rest, Commit — and holds the world to a map replay in which the first
// arrival at a cell keeps its slot. The first byte sizes the swarm (up to
// 48 robots), the next two per robot place it in a 16×16 box straddling
// the chunk corner at (64, 64); every later byte decides one robot's
// round, robots taken in canonical order: bits 0–1 zero means it sleeps,
// otherwise bits 2–3 and 4–5 (mod 3, minus 1) give its L∞ ≤ 1 move, so
// rounds mix sleepers, moves and merges. After every Commit the world's
// Cells, Slots, Len and Bounds must match the replay, the column words and
// slot blocks must agree with the row words and the cell order, and every
// occupancy observable must match a swarm oracle (checkAgainstOracle).
//
// A move byte is 1 | (dx+1)<<2 | (dy+1)<<4: 21 stays, 25 is +x, 17 −x,
// 37 +y, 5 −y, 41 +x+y and 1 −x−y. The last three seeds walk robots
// across slot-block and chunk seams: a row over x = 71↔72 and a column
// over y = 71↔72 (in-chunk 7↔8, the seam between the first two 8×8
// blocks), then a swap and a merge on the seam; and three robots around
// (63, 63) over the chunk seams x = 63↔64 and y = 63↔64 (in-chunk 63↔0)
// on both axes at once, ending in a merge.
func FuzzRoundProtocol(f *testing.F) {
	f.Add([]byte{4, 0, 0, 1, 0, 2, 0, 3, 0, 5, 5, 5, 5, 0, 21, 9, 37})
	f.Add([]byte{6, 7, 7, 8, 7, 9, 7, 7, 8, 8, 8, 9, 8, 1, 2, 3, 0, 4, 5, 0, 42, 42, 42, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{8, 0, 8, 15, 8, 8, 0, 8, 15, 7, 7, 9, 9, 7, 9, 9, 7, 60, 4, 0, 16, 0, 20, 36, 60, 5, 5, 5, 5, 5, 5, 5, 5})
	f.Add([]byte{4, 12, 4, 13, 4, 14, 4, 15, 4,
		25, 25, 25, 25, 25, 25, 25, 25, 17, 17, 17, 17, 17, 17, 17, 17,
		21, 0, 25, 25, 21, 21, 25, 17, 21, 21, 25, 21})
	f.Add([]byte{4, 4, 12, 4, 13, 4, 14, 4, 15,
		37, 37, 37, 37, 37, 37, 37, 37, 5, 5, 5, 5, 5, 5, 5, 5,
		21, 0, 37, 37, 21, 21, 37, 5, 21, 21, 37, 21})
	f.Add([]byte{3, 7, 6, 6, 7, 7, 7,
		41, 41, 41, 1, 1, 1, 25, 37, 41, 17, 5, 1, 37, 21, 21})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 49
		data = data[1:]
		s := swarm.New()
		for i := 0; i < n && len(data) >= 2; i++ {
			s.Add(grid.Pt(56+int(data[0]%16), 56+int(data[1]%16)))
			data = data[2:]
		}
		d := NewDense(s.Cells(), false)
		// The replay: the robot on each cell's slot, assigned in canonical
		// order at construction like the world's.
		slotOf := make(map[grid.Point]int32, s.Len())
		for i, p := range s.Cells() {
			slotOf[p] = int32(i)
		}
		for round := 0; round < 64 && len(data) > 0; round++ {
			cells := append([]grid.Point(nil), d.Cells()...)
			var sleepers []grid.Point
			next := make(map[grid.Point]int32, len(cells))
			arrive := func(from, dst grid.Point) {
				if _, ok := next[dst]; !ok {
					next[dst] = slotOf[from]
				}
			}
			d.BeginRound()
			for _, p := range cells {
				var b byte
				if len(data) > 0 {
					b, data = data[0], data[1:]
				}
				if b&3 == 0 {
					sleepers = append(sleepers, p)
					continue
				}
				dst := p.Add(grid.Pt(int(b>>2&3)%3-1, int(b>>4&3)%3-1))
				d.Arrive(p, dst)
				arrive(p, dst)
			}
			d.BeginSleep()
			for _, p := range sleepers {
				d.Sleep(p)
				arrive(p, p)
			}
			d.Commit()
			slotOf = next

			want := make([]grid.Point, 0, len(next))
			bounds := grid.EmptyRect
			for p := range next {
				want = append(want, p)
				bounds = bounds.Include(p)
			}
			sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
			got, gotSlots := d.Cells(), d.Slots()
			if d.Len() != len(want) || len(got) != len(want) || len(gotSlots) != len(want) {
				t.Fatalf("round %d: Len %d, %d cells, %d slots; replay has %d robots", round, d.Len(), len(got), len(gotSlots), len(want))
			}
			for i, p := range want {
				if got[i] != p || gotSlots[i] != next[p] {
					t.Fatalf("round %d: index %d holds %v slot %d, replay %v slot %d", round, i, got[i], gotSlots[i], p, next[p])
				}
			}
			if b := d.Bounds(); b != bounds {
				t.Fatalf("round %d: Bounds %v, replay %v", round, b, bounds)
			}
			oracle := swarm.NewSized(len(want))
			for _, p := range want {
				oracle.Add(p)
			}
			checkAgainstOracle(t, d, oracle, append(cells, want...))
		}
	})
}
