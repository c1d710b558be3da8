package world_test

import (
	"testing"

	"gridgather/internal/core"
	"gridgather/internal/fsync"
	"gridgather/internal/gen"
	"gridgather/internal/grid"
	"gridgather/internal/swarm"
)

// TestColumnsFollowEngineRounds steps an engine over every seeded-catalog
// swarm, shifted so it straddles chunk seams, and checks after every
// Commit that each tile's column words are the transpose of its row
// words: the engine's arrivals, merges and layer clears keep the column
// copy in step.
func TestColumnsFollowEngineRounds(t *testing.T) {
	for i, wl := range gen.SeededCatalog() {
		t.Run(wl.Name, func(t *testing.T) {
			shift := grid.Pt(64*(i%3)-3, 31-64*(i%2))
			s := swarm.New()
			for _, c := range wl.Build(90, 5).Cells() {
				s.Add(c.Add(shift))
			}
			eng := fsync.New(s, core.Default(), fsync.Config{})
			for r := 0; r < 60 && !eng.Gathered(); r++ {
				if err := eng.Step(); err != nil {
					t.Fatal(err)
				}
				if err := eng.World().ColumnsMismatch(); err != nil {
					t.Fatalf("after round %d: %v", eng.Round(), err)
				}
			}
		})
	}
}
