package world

import (
	"math/rand"
	"testing"

	"gridgather/internal/grid"
	"gridgather/internal/robot"
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

// qWindow fingerprints everything the quiescence contract promises a
// clean cell's robot has already seen: per cell within L∞ radius r of p,
// its occupancy, crash mark and run state.
func qWindow(d *Dense, p grid.Point, r int) uint64 {
	sig := uint64(14695981039346656037)
	mix := func(v int) { sig = (sig ^ uint64(v)) * 1099511628211 }
	for dy := -r; dy <= r; dy++ {
		for dx := -r; dx <= r; dx++ {
			q := grid.Pt(p.X+dx, p.Y+dy)
			switch {
			case !d.Has(q):
				mix(0)
				continue
			case d.CrashedAt(q):
				mix(2)
			default:
				mix(1)
			}
			runs := d.StateAt(q).Runs
			mix(len(runs))
			for _, run := range runs {
				mix(run.ID)
				mix(run.Dir.X)
				mix(run.Dir.Y)
				mix(run.Inside.X)
				mix(run.Inside.Y)
				mix(int(run.Phase))
				mix(run.StepsLeft)
				mix(run.Age)
			}
		}
	}
	return sig
}

// qCheck is the soundness oracle pass: a robot whose cell QuiesceSkip
// clears must have a window identical to the one cached at its last
// recorded verdict; every other robot "recomputes" — recaches its window
// and records a fresh quiescent verdict.
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

// qRound drives one protocol round in which every robot stays, except the
// robot at index mover (-1 for none), which moves by dir. The stayers are
// activated, or sleep (their runs frozen) when sleep is set. keep gives
// the mover a run to keep at its landing cell, and recv (-1 for none) is
// the index of a robot that receives a delivered run after every arrival
// is counted. Each new run gets a fresh ID from *id.
func qRound(d *Dense, mover int, dir grid.Point, keep, sleep bool, recv int, id *int) {
	run := func() robot.State {
		*id++
		return robot.State{Runs: []robot.Run{{ID: *id, Dir: grid.East, Inside: grid.North, Phase: robot.PhaseRoll, Age: *id % 5}}}
	}
	cells := d.Cells()
	var to grid.Point
	if recv >= 0 {
		to = cells[recv]
	}
	var mdst grid.Point
	for j, p := range cells {
		dst := p
		if j == mover {
			dst = p.Add(dir)
			mdst = dst
		} else if sleep {
			continue
		}
		d.Arrive(p, dst)
	}
	var active []bool
	if sleep && mover >= 0 {
		active = make([]bool, len(cells))
		active[mover] = true
	}
	d.Land(active)
	if mover >= 0 && keep && d.ArrivalCount(mdst) == 1 {
		d.SetArrivalState(mdst, run())
	}
	if recv >= 0 && d.ArrivalCount(to) == 1 {
		d.SetArrivalState(to, run())
	}
	d.Commit()
}

// FuzzQuiescenceSoundness drives random protocol rounds and crashes
// through the world, asserting after every operation that the recompute
// set is a superset of the robots whose views actually changed:
// QuiesceSkip may clear a robot only if its radius window — occupancy,
// crash marks and run states — is identical to the window it last
// recomputed against. Every mark comes from the world's own writes: moves,
// merges onto stayers, kept and delivered runs, arrivals of robots that
// carry runs, and crashes; sleepers keep their runs frozen and mark
// nothing. The seed corpus covers chunk seams (the initial
// cluster sits at the 0/63/64 boundary), merges and every operation.
func FuzzQuiescenceSoundness(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 3, 0, 2, 5, 1, 10, 10, 0, 3, 7})
	f.Add([]byte{2, 0, 0, 3, 1, 1, 0, 4, 4, 0, 5, 8, 0, 6, 2})
	f.Add([]byte{1, 200, 200, 0, 7, 6, 0, 7, 6, 0, 7, 6, 2, 200, 200})
	f.Add([]byte{4, 14, 4, 6, 0, 5, 6, 0, 4, 5, 9, 0, 6, 3, 1, 3, 9, 0, 7, 8, 2, 0, 14, 5})
	f.Add([]byte{3, 20, 0, 7, 21, 1, 4, 0, 0, 6, 0, 7, 5, 35, 0, 0, 0, 4, 7, 22, 3, 2, 20, 0})
	f.Add([]byte{3, 12, 0, 7, 12, 0}) // a crashed robot merges onto a stayer, taking its cell
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
		d := NewDense(s.Cells(), false)
		d.EnableQuiescence(radius)
		d.EnableCrashes()
		cached := make(map[int32]uint64)
		qCheck(t, d, radius, cached)

		id := 0
		for i := 0; i+2 < len(data) && i < 3*120; i += 3 {
			op, a, b := data[i], data[i+1], data[i+2]
			cells := d.Cells()
			pick := int(a) % len(cells)
			dir := grid.Pt(int(b%3)-1, int(b/3%3)-1)
			switch op % 8 {
			case 0: // one robot moves L∞ ≤ 1, everyone else stays
				qRound(d, pick, dir, false, false, -1, &id)
			case 1: // one robot moves L∞ ≤ 1, everyone else sleeps
				qRound(d, pick, dir, false, true, -1, &id)
			case 2: // the mover keeps a run at its landing cell, everyone else sleeps
				qRound(d, pick, dir, true, true, -1, &id)
			case 3: // a crash: no occupancy change
				d.Crash(cells[pick])
			case 4: // the mover keeps a run at its landing cell
				qRound(d, pick, dir, true, false, -1, &id)
			case 5: // everyone stays; one robot receives a delivered run
				qRound(d, -1, grid.Point{}, false, false, pick, &id)
			case 6: // the next robot carrying runs moves (its runs end)
				mover := -1
				for k := range cells {
					if j := (pick + k) % len(cells); d.StateAt(cells[j]).HasRuns() {
						mover = j
						break
					}
				}
				qRound(d, mover, dir, false, false, -1, &id)
			case 7: // the mover merges onto a stayer in its 8-neighbourhood
				kings := [8]grid.Point{grid.East, grid.NorthEast, grid.North, grid.NorthWest,
					grid.West, grid.SouthWest, grid.South, grid.SouthEast}
				for k := range kings {
					if step := kings[(int(b)+k)%8]; d.Has(cells[pick].Add(step)) {
						qRound(d, pick, step, false, false, -1, &id)
						break
					}
				}
			}
			qCheck(t, d, radius, cached)
		}
	})
}
