package world

import (
	"math/rand"
	"testing"

	"gridgather/internal/grid"
	"gridgather/internal/swarm"
)

// probeMax is one past the paper's merge-length bound (core's MergeMax =
// 19): the run and segment lengths the merge test asks for, plus one.
const probeMax = 20

// runLenRef is RunLen as a loop of single-cell reads.
func runLenRef(d *Dense, p, step grid.Point, max int) int {
	n := 0
	for n < max && d.Has(p.Add(step.Scale(n+1))) {
		n++
	}
	return n
}

// anyInRef is AnyIn as a loop of single-cell reads.
func anyInRef(d *Dense, p, step grid.Point, count int) bool {
	for i := 0; i < count; i++ {
		if d.Has(p.Add(step.Scale(i))) {
			return true
		}
	}
	return false
}

// checkRunReads compares Block3 at p against nine Has reads, and RunLen
// and AnyIn at p against the per-cell loops in all four axis directions
// for every length in [0, probeMax], a few that span several chunks, and
// negative ones (both read nothing).
func checkRunReads(t *testing.T, d *Dense, p grid.Point) {
	t.Helper()
	var block grid.Block3
	for y := -1; y <= 1; y++ {
		for x := -1; x <= 1; x++ {
			if rel := grid.Pt(x, y); d.Has(p.Add(rel)) {
				block |= grid.Block3Bit(rel)
			}
		}
	}
	if got := d.Block3(p); got != block {
		t.Fatalf("Block3(%v) = %09b, per-cell reads give %09b", p, got, block)
	}
	lengths := []int{-5, -1, 64, 65, 130}
	for n := 0; n <= probeMax; n++ {
		lengths = append(lengths, n)
	}
	for _, step := range grid.Axis4 {
		for _, n := range lengths {
			if got, want := d.RunLen(p, step, n), runLenRef(d, p, step, n); got != want {
				t.Fatalf("RunLen(%v, %v, %d) = %d, per-cell reads give %d", p, step, n, got, want)
			}
			if got, want := d.AnyIn(p, step, n), anyInRef(d, p, step, n); got != want {
				t.Fatalf("AnyIn(%v, %v, %d) = %v, per-cell reads give %v", p, step, n, got, want)
			}
		}
	}
}

// TestRunLenMatchesCells checks the word-at-a-time block, run and segment
// reads against per-cell Has loops on a world built around the chunk seams. The
// chunks with y ≥ 0 and x ≥ 0 are never allocated, so runs along row 5
// and column 63 leave allocated chunks for missing ones; the probes start
// at every x and y ≡ 62, 63, 0, 1 (mod 64) in [-194, 193], negative
// coordinates included, and go in both directions on both axes.
func TestRunLenMatchesCells(t *testing.T) {
	s := swarm.New()
	rng := rand.New(rand.NewSource(1))
	for y := -130; y < 0; y++ {
		for x := -130; x <= 200; x++ {
			full := y == -1 || y == -64 || y == -65 || x == 63 || x == 64 || x == -1 || x == -64
			if full || rng.Float64() < 0.75 {
				s.Add(grid.Pt(x, y))
			}
		}
	}
	for i := -64; i < 0; i++ {
		s.Add(grid.Pt(i, 5))     // row 5 ends at the never-allocated chunk (0, 0)
		s.Add(grid.Pt(-1, i+64)) // column -1 ends at the never-allocated chunk (-1, 1)
	}
	for y := -130; y < 0; y++ {
		if y != -65 && y != -128 {
			s.Add(grid.Pt(-100, y)) // column -100 breaks just past both seams it crosses
		} else {
			s.Remove(grid.Pt(-100, y))
		}
	}
	d := NewDense(s.Cells(), false)

	// Spot checks that the fixture holds the cases it is meant to.
	if got := d.RunLen(grid.Pt(-10, 5), grid.East, probeMax); got != 9 {
		t.Fatalf("run into the missing chunk east of row 5: RunLen = %d, want 9", got)
	}
	if got := d.RunLen(grid.Pt(63, -3), grid.North, probeMax); got != 2 {
		t.Fatalf("run into the missing chunk north of column 63: RunLen = %d, want 2", got)
	}
	if got := d.RunLen(grid.Pt(-1, 60), grid.North, probeMax); got != 3 {
		t.Fatalf("run into the missing chunk north of column -1: RunLen = %d, want 3", got)
	}
	if got := d.RunLen(grid.Pt(-130, -1), grid.East, 200); got != 200 {
		t.Fatalf("run along full row -1 across three seams: RunLen = %d, want 200", got)
	}
	// Vertical runs and segments that cross chunk seams read one column
	// word per chunk.
	for _, c := range []struct {
		p, step grid.Point
		max     int
		want    int
	}{
		{grid.Pt(63, 0), grid.South, 200, 130},    // full column across the seams at -64 and -128
		{grid.Pt(64, -131), grid.North, 200, 130}, // the same, upward
		{grid.Pt(-100, -1), grid.South, 200, 63},  // fills its chunk, stops at the gap one row past the seam
		{grid.Pt(-100, -130), grid.North, 200, 1}, // crosses the seam at -128 into the gap
		{grid.Pt(-100, -127), grid.South, 200, 0}, // the gap at -128 is the chunk's last row
	} {
		if got := d.RunLen(c.p, c.step, c.max); got != c.want {
			t.Fatalf("RunLen(%v, %v, %d) = %d, want %d", c.p, c.step, c.max, got, c.want)
		}
	}
	for _, y := range []int{-130, -129, -128, -66, -65, -64, -63, -2, -1, 0} {
		checkRunReads(t, d, grid.Pt(-100, y))
	}
	if d.AnyIn(grid.Pt(1000, 1000), grid.West, probeMax) || d.RunLen(grid.Pt(-1000, 5), grid.South, probeMax) != 0 {
		t.Fatal("reads outside the chunk table report occupancy")
	}

	var coords []int
	for base := -192; base <= 192; base += 64 {
		coords = append(coords, base-2, base-1, base, base+1)
	}
	for _, x := range coords {
		for _, y := range coords {
			checkRunReads(t, d, grid.Pt(x, y))
		}
	}
}

// FuzzRunLen checks RunLen and AnyIn against per-cell Has loops on worlds
// drawn as straight segments. Each op is four bytes: a signed x and y, a
// length byte (low 7 bits) and a direction byte (low 2 bits pick the axis
// direction; bit 2 stretches the start by 61 so segments cross far chunk
// seams and negative quadrants). The probe (px, py) is checked in all four
// directions for every length up to probeMax, as are the two cells beside
// each segment's start.
func FuzzRunLen(f *testing.F) {
	f.Add([]byte{62, 0, 40, 0, 0, 62, 40, 1, 190, 5, 70, 2}, int16(60), int16(0))
	f.Add([]byte{255, 255, 100, 4, 1, 1, 30, 7, 192, 64, 66, 3}, int16(-65), int16(-1))
	f.Add([]byte{63, 63, 2, 0, 64, 64, 2, 1, 0, 0, 127, 5}, int16(63), int16(63))
	// Vertical segments across chunk seams: up from row 60, down from row
	// -60, and a stretched one from (61, 61) through rows 64 and 128.
	f.Add([]byte{10, 60, 70, 1, 10, 136, 70, 3, 1, 1, 100, 5}, int16(10), int16(62))
	f.Add([]byte{200, 190, 127, 1, 200, 63, 1, 0, 61, 61, 9, 7}, int16(-56), int16(0))
	f.Fuzz(func(t *testing.T, data []byte, px, py int16) {
		s := swarm.New()
		var starts []grid.Point
		for i := 0; i+3 < len(data) && i < 4*32; i += 4 {
			p := grid.Pt(int(int8(data[i])), int(int8(data[i+1])))
			if data[i+3]&4 != 0 {
				p = p.Scale(61)
			}
			step := grid.Axis4[data[i+3]&3]
			for k := 0; k < int(data[i+2]&127); k++ {
				s.Add(p.Add(step.Scale(k)))
			}
			starts = append(starts, p, p.Sub(step))
		}
		d := NewDense(s.Cells(), false)
		checkRunReads(t, d, grid.Pt(int(px), int(py)))
		for _, p := range starts {
			checkRunReads(t, d, p)
		}
	})
}
