package world

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"gridgather/internal/codec"
	"gridgather/internal/gen"
	"gridgather/internal/grid"
	"gridgather/internal/robot"
)

// buildWorld makes a dense world with a few planted run states and clocks.
func buildWorld(t *testing.T, withClocks bool) *Dense {
	t.Helper()
	d := NewDense(gen.RandomBlob(80, 7).Cells(), withClocks)
	cells := d.Cells()
	for i, p := range cells {
		if i%5 == 0 {
			d.SetState(p, robot.State{Runs: []robot.Run{
				{ID: i + 1, Dir: grid.East, Inside: grid.North, Age: i},
			}})
		}
	}
	if withClocks {
		// Tick some clocks through a round in which every robot stays.
		for i := range cells {
			for k := 0; k < i%7; k++ {
				d.TickClock(int32(i))
			}
		}
		d.Land(nil)
		d.Commit()
	}
	return d
}

func equalWorlds(t *testing.T, a, b *Dense) {
	t.Helper()
	ac, bc := a.Cells(), b.Cells()
	if len(ac) != len(bc) {
		t.Fatalf("population %d vs %d", len(ac), len(bc))
	}
	as, bs := a.Slots(), b.Slots()
	for i := range ac {
		if ac[i] != bc[i] || as[i] != bs[i] {
			t.Fatalf("cell/slot %d: %v/%d vs %v/%d", i, ac[i], as[i], bc[i], bs[i])
		}
		sa, sb := a.StateAt(ac[i]), b.StateAt(bc[i])
		if len(sa.Runs) != len(sb.Runs) {
			t.Fatalf("run count at %v: %d vs %d", ac[i], len(sa.Runs), len(sb.Runs))
		}
		for j := range sa.Runs {
			if sa.Runs[j] != sb.Runs[j] {
				t.Fatalf("run at %v: %+v vs %+v", ac[i], sa.Runs[j], sb.Runs[j])
			}
		}
		if a.ClockAt(ac[i]) != b.ClockAt(bc[i]) {
			t.Fatalf("clock at %v: %d vs %d", ac[i], a.ClockAt(ac[i]), b.ClockAt(bc[i]))
		}
	}
	if a.Bounds() != b.Bounds() || a.Len() != b.Len() {
		t.Fatalf("bounds/len diverged: %+v/%d vs %+v/%d", a.Bounds(), a.Len(), b.Bounds(), b.Len())
	}
}

func TestDenseSnapshotRoundTrip(t *testing.T) {
	for _, withClocks := range []bool{false, true} {
		d := buildWorld(t, withClocks)
		b := d.AppendState(nil)
		got, rest, err := DecodeDense(b, withClocks)
		if err != nil {
			t.Fatalf("clocks=%v: %v", withClocks, err)
		}
		if len(rest) != 0 {
			t.Fatalf("clocks=%v: %d trailing bytes", withClocks, len(rest))
		}
		if err := got.ColumnsMismatch(); err != nil {
			t.Fatalf("clocks=%v: %v", withClocks, err)
		}
		equalWorlds(t, d, got)
		// Determinism: equal worlds produce equal bytes.
		if string(got.AppendState(nil)) != string(b) {
			t.Errorf("clocks=%v: re-encoded snapshot differs", withClocks)
		}
	}
}

// The decoded world must behave identically under the round protocol, not
// just read identically: run one arrival round on both and compare.
func TestDecodedWorldAdvances(t *testing.T) {
	d := buildWorld(t, true)
	b := d.AppendState(nil)
	got, _, err := DecodeDense(b, true)
	if err != nil {
		t.Fatal(err)
	}
	step := func(w *Dense) {
		cells := append([]grid.Point(nil), w.Cells()...)
		for _, p := range cells {
			w.Arrive(p, p.Add(grid.Pt(1, 0))) // shift east: some merges occur
		}
		w.Land(nil)
		w.Commit()
	}
	step(d)
	step(got)
	equalWorlds(t, d, got)
	if err := got.ColumnsMismatch(); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeDenseRejectsTruncation(t *testing.T) {
	d := buildWorld(t, true)
	full := d.AppendState(nil)
	for _, cut := range []int{0, 1, len(full) / 2, len(full) - 1} {
		if _, _, err := DecodeDense(full[:cut], true); err == nil {
			t.Errorf("cut at %d: expected error", cut)
		} else if !errors.Is(err, codec.ErrTruncated) {
			// Some prefixes decode into a structural error instead — both
			// reject, but truncation should dominate for short cuts.
			t.Logf("cut at %d: structural error %v", cut, err)
		}
	}
}

func TestDecodeDenseRejectsMismatchedClocks(t *testing.T) {
	d := buildWorld(t, false)
	b := d.AppendState(nil)
	if _, _, err := DecodeDense(b, true); err == nil {
		t.Error("expected clock-configuration mismatch error")
	}
}

func TestDecodeDenseRejectsCorruption(t *testing.T) {
	// Out-of-order cells: encode two cells swapped by hand.
	var b []byte
	b = codec.AppendUvarint(b, 2)   // slots
	b = codec.AppendBool(b, false)  // no clocks
	b = codec.AppendUvarint(b, 2)   // robots
	for i, x := range []int{5, 3} { // descending X on one row: not canonical
		b = codec.AppendInt(b, x)
		b = codec.AppendInt(b, 0)
		b = codec.AppendUvarint(b, uint64(i))
		b = codec.AppendUvarint(b, 0)
	}
	if _, _, err := DecodeDense(b, false); err == nil {
		t.Error("expected canonical-order error")
	}

	// Slot outside the slot space.
	b = nil
	b = codec.AppendUvarint(b, 1)
	b = codec.AppendBool(b, false)
	b = codec.AppendUvarint(b, 1)
	b = codec.AppendInt(b, 0)
	b = codec.AppendInt(b, 0)
	b = codec.AppendUvarint(b, 9) // slot 9 of 1
	b = codec.AppendUvarint(b, 0)
	if _, _, err := DecodeDense(b, false); err == nil {
		t.Error("expected slot-range error")
	}

	// Too many runs.
	b = nil
	b = codec.AppendUvarint(b, 1)
	b = codec.AppendBool(b, false)
	b = codec.AppendUvarint(b, 1)
	b = codec.AppendInt(b, 0)
	b = codec.AppendInt(b, 0)
	b = codec.AppendUvarint(b, 0)
	b = codec.AppendUvarint(b, robot.MaxRuns+1)
	if _, _, err := DecodeDense(b, false); err == nil {
		t.Error("expected run-count error")
	}
}

// A world section of seven bytes can declare 2^31-1 slots. SlotSpace
// reads that figure without decoding anything, so callers can bound it
// before DecodeDense sizes its per-slot tables.
func TestSlotSpaceReadsTheHeader(t *testing.T) {
	n, err := SlotSpace([]byte{0xff, 0xff, 0xff, 0xff, 0x07, 0, 0})
	if err != nil || n != math.MaxInt32 {
		t.Fatalf("SlotSpace = %d, %v; want 2^31-1", n, err)
	}
	d := buildWorld(t, false)
	if n, err := SlotSpace(d.AppendState(nil)); err != nil || n != uint64(d.SlotCount()) {
		t.Fatalf("SlotSpace = %d, %v; want %d", n, err, d.SlotCount())
	}
	if _, err := SlotSpace(nil); !errors.Is(err, codec.ErrTruncated) {
		t.Fatalf("SlotSpace(nil) = %v, want ErrTruncated", err)
	}
}

// Decoding costs a few bytes per slot, not a run state per slot: a world
// of 2^20 slots and no robots decodes in well under 8 bytes a slot.
func TestDecodeDensePerSlotCost(t *testing.T) {
	const slots = 1 << 20
	b := codec.AppendUvarint(nil, slots)
	b = codec.AppendBool(b, false)
	b = codec.AppendUvarint(b, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, _, err := DecodeDense(b, false)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if d.SlotCount() != slots {
		t.Fatalf("SlotCount = %d", d.SlotCount())
	}
	if per := float64(after.TotalAlloc-before.TotalAlloc) / slots; per > 8 {
		t.Fatalf("decode allocated %.1f bytes per slot", per)
	}
}

func TestDecodeDenseRejectsDuplicateSlots(t *testing.T) {
	b := codec.AppendUvarint(nil, 3)
	b = codec.AppendBool(b, false)
	b = codec.AppendUvarint(b, 2)
	for x := 0; x < 2; x++ {
		b = codec.AppendInt(b, x)
		b = codec.AppendInt(b, 0)
		b = codec.AppendUvarint(b, 1) // both robots claim slot 1
		b = codec.AppendUvarint(b, 0)
	}
	if _, _, err := DecodeDense(b, false); !errors.Is(err, ErrDuplicateSlot) {
		t.Fatalf("two robots in slot 1: %v, want ErrDuplicateSlot", err)
	}
}

// A bounding box wider than the slot space could ever span is refused
// before the chunk table covering it is allocated.
func TestDecodeDenseRejectsWideBounds(t *testing.T) {
	encode := func(x int) []byte {
		b := codec.AppendUvarint(nil, 2)
		b = codec.AppendBool(b, false)
		b = codec.AppendUvarint(b, 2)
		for i, p := range []grid.Point{{X: 0, Y: 0}, {X: x, Y: 0}} {
			b = codec.AppendInt(b, p.X)
			b = codec.AppendInt(b, p.Y)
			b = codec.AppendUvarint(b, uint64(i))
			b = codec.AppendUvarint(b, 0)
		}
		return b
	}
	if _, _, err := DecodeDense(encode(100), false); err != nil {
		t.Fatalf("a gap within the slack was refused: %v", err)
	}
	for _, x := range []int{1 << 20, 1 << 40, math.MaxInt64} {
		if _, _, err := DecodeDense(encode(x), false); err == nil {
			t.Errorf("robots at x = 0 and %d in a 2-slot world were accepted", x)
		}
	}
}

func TestDecodeDenseRejectsImpossibleRuns(t *testing.T) {
	good := robot.Run{ID: 1, Dir: grid.East, Inside: grid.North}
	for _, r := range []robot.Run{
		{ID: 0, Dir: grid.East, Inside: grid.North},
		{ID: 1, Dir: grid.Pt(1, 1), Inside: grid.North},
		{ID: 1, Dir: grid.East, Inside: grid.West},
		{ID: 1, Dir: grid.East, Inside: grid.Pt(0, 2)},
		{ID: 1, Dir: grid.East, Inside: grid.North, Phase: 7},
	} {
		for _, run := range []robot.Run{good, r} {
			b := codec.AppendUvarint(nil, 1)
			b = codec.AppendBool(b, false)
			b = codec.AppendUvarint(b, 1)
			b = codec.AppendInt(b, 0)
			b = codec.AppendInt(b, 0)
			b = codec.AppendUvarint(b, 0)
			b = codec.AppendUvarint(b, 1)
			b = appendRun(b, run)
			_, _, err := DecodeDense(b, false)
			if ok := run == good; (err == nil) != ok {
				t.Errorf("run %+v: err = %v", run, err)
			}
		}
	}
}

// Only robots that carry runs hold a pool entry, and a merge returns the
// entries of both the survivor and the robot merged away.
func TestRunPoolHoldsOnlyCarriers(t *testing.T) {
	d := buildWorld(t, false)
	carriers := 0
	for _, slot := range d.Slots() {
		if d.HasRuns(slot) {
			carriers++
		}
	}
	got, _, err := DecodeDense(d.AppendState(nil), false)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(got.runPool) - 1 - len(got.runFree); n != carriers {
		t.Fatalf("decoded pool holds %d entries for %d carriers", n, carriers)
	}

	w := NewDense([]grid.Point{grid.Pt(0, 0), grid.Pt(1, 0), grid.Pt(2, 0)}, false)
	run := robot.Run{ID: 1, Dir: grid.East, Inside: grid.North}
	w.SetState(grid.Pt(0, 0), robot.State{Runs: []robot.Run{run}})
	w.SetState(grid.Pt(1, 0), robot.State{Runs: []robot.Run{run, run}})
	w.Arrive(grid.Pt(0, 0), grid.Pt(1, 0)) // merges onto the stayer
	w.Arrive(grid.Pt(1, 0), grid.Pt(1, 0))
	w.Land(nil)
	w.Commit()
	if w.Len() != 2 || len(w.runFree) != 2 || w.StateAt(grid.Pt(1, 0)).HasRuns() {
		t.Fatalf("after the merge: %d robots, %d free entries, survivor state %+v",
			w.Len(), len(w.runFree), w.StateAt(grid.Pt(1, 0)))
	}
	w.SetState(grid.Pt(2, 0), robot.State{Runs: []robot.Run{run}})
	if len(w.runPool) != 3 || len(w.runFree) != 1 {
		t.Fatalf("a new carrier did not reuse a released entry: pool %d, free %d", len(w.runPool), len(w.runFree))
	}
}
