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
// Arrive for the activated robots that move (and for some that stay),
// Land, Commit — and holds the world to a map replay in which the first
// arrival at a cell in canonical activation order keeps its slot: the
// activated robots in cell order, then the sleepers, every stayer arriving
// at its own cell. The first byte sizes the swarm (up to 48 robots), the
// next two per robot place it in a 16×16 box straddling the chunk corner
// at (64, 64); every later byte decides one robot's round, robots taken in
// canonical order: bits 0–1 zero means the activation mask leaves it out,
// otherwise bits 2–3 and 4–5 (mod 3, minus 1) give its L∞ ≤ 1 move, and
// bit 6 names an activated stayer to Arrive, which must change nothing.
// Bit 7 crashes a live robot before the round. A crashed robot sleeps from
// then on whatever the mask says: it never Arrives, and the replay orders
// it with the sleepers. Land gets the mask, or nil when every live robot
// is activated, so that only the crash mark can make a crashed stayer lose
// to a later mover. Logical clocks are on: each activated robot ticks
// once, and a merge keeps the largest clock.
//
// Before Commit each destination's ArrivalCount and surviving slot must
// match the replay, every vacated cell must count 0, and Land must report
// as many merged crashed robots as the replay. After every
// Commit the round scratch must be gone (an empty edit list, every row-edit
// index entry zero), the world's Cells, Slots, Len, Bounds, clocks and
// crash marks must match the replay, the column words, live tiles and slot blocks must
// agree with the row words and the cell order, and every occupancy
// observable must match a swarm oracle (checkAgainstOracle). Quiescence runs at radius 2: every
// cell of an allocated chunk within L∞ 2 of a cell whose occupancy changed
// must be dirty after Commit (the dirty planes are cleared after each
// check, so every round is held to its own marks).
//
// A move byte is 1 | (dx+1)<<2 | (dy+1)<<4: 21 stays, 85 a named stay,
// 25 is +x, 17 −x, 37 +y, 5 −y, 41 +x+y and 1 −x−y. The seeds walk robots
// across slot-block and chunk seams (a row over x = 71↔72 and a column over
// y = 71↔72, in-chunk 7↔8; three robots around the chunk corner at
// (63, 63)), and then each pins one survivor rule: a mover landing on a
// stayer later in canonical order (the mover survives, along a row and
// across rows), on a named stayer, on a stayer earlier in canonical order
// (the stayer survives), and on a sleeper (the mover survives); a swap; an
// A→B→C chain; three-way merges onto an activated and onto a sleeping
// middle robot; and a mover landing on a crashed stayer that the mask
// activates, from an earlier and from a later cell (the mover survives
// both).
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
	f.Add([]byte{2, 0, 0, 1, 0, 25, 21})           // onto a later stayer along a row
	f.Add([]byte{2, 0, 0, 0, 1, 37, 21})           // onto a later stayer in the next row
	f.Add([]byte{2, 0, 0, 1, 0, 25, 85})           // onto a later named stayer
	f.Add([]byte{2, 0, 0, 1, 0, 21, 17})           // onto an earlier stayer
	f.Add([]byte{2, 0, 0, 1, 0, 25, 0})            // onto a sleeper
	f.Add([]byte{2, 1, 0, 0, 1, 0, 9})             // a sleeper landed on from a later cell
	f.Add([]byte{2, 0, 0, 1, 0, 25, 17})           // a swap
	f.Add([]byte{3, 0, 0, 1, 0, 2, 0, 25, 25, 25}) // an A→B→C chain
	f.Add([]byte{3, 0, 0, 1, 0, 2, 0, 25, 21, 17}) // a three-way merge onto a stayer
	f.Add([]byte{3, 0, 0, 1, 0, 2, 0, 25, 0, 17})  // a three-way merge onto a sleeper
	f.Add([]byte{2, 0, 0, 1, 0, 25, 149})          // an earlier mover onto a crashed stayer
	f.Add([]byte{2, 0, 0, 1, 0, 149, 17})          // a later mover onto a crashed stayer
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const radius = 2
		n := int(data[0]) % 49
		data = data[1:]
		s := swarm.New()
		for i := 0; i < n && len(data) >= 2; i++ {
			s.Add(grid.Pt(56+int(data[0]%16), 56+int(data[1]%16)))
			data = data[2:]
		}
		d := NewDense(s.Cells(), true)
		d.EnableQuiescence(radius)
		d.EnableCrashes()
		// The replay: the robot on each cell's slot, assigned in canonical
		// order at construction like the world's, and each slot's clock.
		slotOf := make(map[grid.Point]int32, s.Len())
		for i, p := range s.Cells() {
			slotOf[p] = int32(i)
		}
		clock := make(map[int32]int, s.Len())
		crashed := make(map[int32]bool)
		for round := 0; round < 64 && len(data) > 0; round++ {
			cells := append([]grid.Point(nil), d.Cells()...)
			bs := make([]byte, len(cells))
			for i, p := range cells {
				if len(data) > 0 {
					bs[i], data = data[0], data[1:]
				}
				if slot := slotOf[p]; bs[i]&128 != 0 && !crashed[slot] {
					d.Crash(p)
					crashed[slot] = true
				}
			}
			active := make([]bool, len(cells))
			liveSleeper := false
			var sleepers []grid.Point
			next := make(map[grid.Point]int32, len(cells))
			count := make(map[grid.Point]int, len(cells))
			arrive := func(from, dst grid.Point) {
				slot := slotOf[from]
				if w, ok := next[dst]; !ok {
					next[dst] = slot
				} else if clock[slot] > clock[w] {
					clock[w] = clock[slot]
				}
				count[dst]++
			}
			var vacated []grid.Point
			for i, p := range cells {
				b := bs[i]
				active[i] = b&3 != 0
				if !active[i] || crashed[slotOf[p]] {
					sleepers = append(sleepers, p)
					liveSleeper = liveSleeper || !crashed[slotOf[p]]
					continue
				}
				slot := d.SlotAt(p)
				d.TickClock(slot)
				clock[slot]++
				dst := p.Add(grid.Pt(int(b>>2&3)%3-1, int(b>>4&3)%3-1))
				if dst != p || b&64 != 0 {
					d.Arrive(p, dst)
				}
				if dst != p {
					vacated = append(vacated, p)
				}
				arrive(p, dst)
			}
			for _, p := range sleepers {
				arrive(p, p)
			}
			if !liveSleeper {
				active = nil
			}
			lost := d.Land(active)
			wantLost := 0
			for _, p := range cells {
				if slot := slotOf[p]; crashed[slot] && next[p] != slot {
					wantLost++
				}
			}
			if lost != wantLost {
				t.Fatalf("round %d: Land reports %d merged crashed robots, replay %d", round, lost, wantLost)
			}
			for p, slot := range next {
				if got, want := d.ArrivalCount(p), min(count[p], 2); got != want {
					t.Fatalf("round %d: ArrivalCount(%v) = %d, replay %d", round, p, got, want)
				}
				if got := d.SlotAt(p); got != slot {
					t.Fatalf("round %d: %v holds slot %d before Commit, replay %d", round, p, got, slot)
				}
			}
			for _, p := range vacated {
				if _, ok := next[p]; !ok && d.ArrivalCount(p) != 0 {
					t.Fatalf("round %d: vacated %v counts %d arrivals", round, p, d.ArrivalCount(p))
				}
			}
			d.Commit()
			if err := d.RoundScratchMismatch(); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
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
				if c := d.ClockAt(p); c != clock[next[p]] {
					t.Fatalf("round %d: clock at %v = %d, replay %d", round, p, c, clock[next[p]])
				}
				if c := d.CrashedAt(p); c != crashed[next[p]] {
					t.Fatalf("round %d: CrashedAt(%v) = %v, replay %v", round, p, c, crashed[next[p]])
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

			// Every occupancy change dirties its radius window.
			before := make(map[grid.Point]bool, len(cells))
			for _, p := range cells {
				before[p] = true
			}
			for p := range before {
				if _, ok := next[p]; !ok {
					checkDirtyWindow(t, d, p, radius)
				}
			}
			for p := range next {
				if !before[p] {
					checkDirtyWindow(t, d, p, radius)
				}
			}
			d.clearDirty()
		}
	})
}

// checkDirtyWindow fails unless every cell of an allocated chunk within
// L∞ r of p is marked view-dirty.
func checkDirtyWindow(t *testing.T, d *Dense, p grid.Point, r int) {
	t.Helper()
	for dy := -r; dy <= r; dy++ {
		for dx := -r; dx <= r; dx++ {
			if q := p.Add(grid.Pt(dx, dy)); d.tileAt(q) != nil && !d.dirty(q) {
				t.Fatalf("%v changed occupancy but %v is not dirty", p, q)
			}
		}
	}
}
