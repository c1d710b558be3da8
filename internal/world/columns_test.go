package world_test

import (
	"testing"

	"gridgather/internal/core"
	"gridgather/internal/fsync"
	"gridgather/internal/gen"
	"gridgather/internal/grid"
	"gridgather/internal/sched"
	"gridgather/internal/swarm"
)

// TestColumnsFollowEngineRounds steps an engine over every seeded-catalog
// swarm, shifted so it straddles chunk seams, and checks after every
// Commit that each tile's column words are the transpose of its row
// words and that every slot of the cell order is the one the tile plane
// holds at its cell: the engine's departures, landings and merges keep
// the column copy, the occupied-column masks and the live tiles in step,
// and Commit's patch of the cell order moves each slot with its cell. It
// runs under FSYNC and under a round-robin scheduler, whose sleepers are
// merged onto without being named to the protocol.
func TestColumnsFollowEngineRounds(t *testing.T) {
	// FSYNC subtests are named by workload alone, the scheduler's by
	// "ssync-rr:3/" and the workload.
	scheds := []struct {
		prefix string
		make   func() sched.Scheduler
	}{
		{"", func() sched.Scheduler { return nil }},
		{"ssync-rr:3/", func() sched.Scheduler { return sched.RoundRobin(3) }},
	}
	for _, sc := range scheds {
		for i, wl := range gen.SeededCatalog() {
			t.Run(sc.prefix+wl.Name, func(t *testing.T) {
				shift := grid.Pt(64*(i%3)-3, 31-64*(i%2))
				s := swarm.New()
				for _, c := range wl.Build(90, 5).Cells() {
					s.Add(c.Add(shift))
				}
				eng := fsync.New(s, core.Default(), fsync.Config{Scheduler: sc.make()})
				for r := 0; r < 60 && !eng.Gathered(); r++ {
					if err := eng.Step(); err != nil {
						t.Fatal(err)
					}
					if err := eng.World().ColumnsMismatch(); err != nil {
						t.Fatalf("after round %d: %v", eng.Round(), err)
					}
					if err := eng.World().SlotsMismatch(); err != nil {
						t.Fatalf("after round %d: %v", eng.Round(), err)
					}
				}
			})
		}
	}
}
