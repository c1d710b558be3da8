package gridgather

import (
	"context"
	"errors"
	"math"
	"testing"

	"gridgather/internal/core"
	"gridgather/internal/fsync"
	"gridgather/internal/grid"
	"gridgather/internal/swarm"
)

// square returns the 6×6 solid square with its minimum corner at (x, y).
func square(x, y int) []Point {
	var cells []Point
	for dy := 0; dy < 6; dy++ {
		for dx := 0; dx < 6; dx++ {
			cells = append(cells, Point{x + dx, y + dy})
		}
	}
	return cells
}

// A swarm whose views would read across the int64 wrap is refused at both
// entry points, New and Restore, and a swarm touching ±2^62, the edge of
// the accepted range, gathers in exactly the rounds it takes at the
// origin.
func TestCoordinateRange(t *testing.T) {
	const lim = 1 << 62
	ref := mustRun(t, square(0, 0))
	if ref.Err != nil || !ref.Gathered {
		t.Fatalf("square at the origin: %+v", ref)
	}
	refSim := mustNew(t, square(0, 0))
	snap, err := refSim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	header := snap[:len(snap)-len(refSim.eng.AppendState(nil))]
	// forge builds the snapshot a fresh session over the square at (x, y)
	// would write, bypassing New's range check.
	forge := func(x, y int) []byte {
		s := swarm.New()
		for _, c := range square(x, y) {
			s.Add(grid.Pt(c.X, c.Y))
		}
		eng := fsync.New(s, core.Default(), fsync.Config{})
		return eng.AppendState(append([]byte(nil), header...))
	}

	for _, c := range []struct {
		name string
		x, y int
	}{
		{"max corner at +2^62", lim - 5, lim - 5},
		{"min corner at -2^62", -lim, -lim},
		{"mixed edges", lim - 5, -lim},
	} {
		res := mustRun(t, square(c.x, c.y))
		if res.Err != nil || !res.Gathered || res.Rounds != ref.Rounds {
			t.Errorf("%s: %+v, want gathered in %d rounds", c.name, res, ref.Rounds)
		}
		sim, err := Restore(forge(c.x, c.y))
		if err != nil {
			t.Fatalf("%s: restore: %v", c.name, err)
		}
		if res := sim.Run(context.Background()); res.Err != nil || res.Rounds != ref.Rounds {
			t.Errorf("%s: restored run %+v, want gathered in %d rounds", c.name, res, ref.Rounds)
		}
	}

	for _, c := range []struct {
		name string
		x, y int
	}{
		{"int64 max edge", math.MaxInt64 - 5, math.MaxInt64 - 5},
		{"int64 min edge", math.MinInt64, math.MinInt64},
		{"one column past +2^62", lim - 4, 0},
		{"one row past -2^62", 0, -lim - 1},
	} {
		if _, err := New(square(c.x, c.y)); !errors.Is(err, ErrCoordinateRange) {
			t.Errorf("%s: New error %v, want ErrCoordinateRange", c.name, err)
		}
		if _, err := Restore(forge(c.x, c.y)); !errors.Is(err, ErrSnapshotInvalid) {
			t.Errorf("%s: Restore error %v, want ErrSnapshotInvalid", c.name, err)
		}
	}
}
