package core

import (
	"testing"

	"gridgather/internal/fsync"
	"gridgather/internal/gen"
)

// TestGoldenTrajectory pins the algorithm's decisions. Every differential
// suite compares two engine modes running the same algorithm, so none of
// them notices a change in what the algorithm decides; this table does.
// Each seeded-catalog family is gathered at n≈200 (seed 42) under plain
// FSYNC with Default(), and the run's counters must match the recorded
// trajectory exactly. A deliberate change to the algorithm re-records the
// table; a performance change must leave it untouched.
func TestGoldenTrajectory(t *testing.T) {
	golden := []struct {
		name                                string
		robots, rounds, merges, moves, runs int
	}{
		{"line", 200, 99, 198, 198, 0},
		{"solid", 225, 464, 224, 224, 0},
		{"hollow", 200, 341, 199, 2600, 128},
		{"staircase", 200, 50, 198, 200, 0},
		{"spiral", 208, 15, 207, 935, 8},
		{"sierpinski", 512, 711, 511, 728, 128},
		{"tree", 200, 310, 198, 200, 1},
		{"blob", 200, 398, 199, 199, 0},
		{"walk", 200, 134, 196, 256, 17},
		{"clusters", 200, 45, 198, 552, 32},
		{"antcolony", 200, 200, 199, 209, 8},
	}
	catalog := gen.SeededCatalog()
	if len(catalog) != len(golden) {
		t.Fatalf("catalog has %d families, golden table %d", len(catalog), len(golden))
	}
	for i, w := range catalog {
		want := golden[i]
		t.Run(w.Name, func(t *testing.T) {
			if w.Name != want.name {
				t.Fatalf("catalog family %d is %q, golden row is %q", i, w.Name, want.name)
			}
			s := w.Build(200, 42)
			n := s.Len()
			if n != want.robots {
				t.Fatalf("robots = %d, want %d", n, want.robots)
			}
			res := fsync.New(s, Default(), fsync.Config{MaxRounds: 60*n + 400, CheckConnectivity: true}).Run()
			if res.Err != nil || !res.Gathered {
				t.Fatalf("gathered=%v err=%v after %d rounds", res.Gathered, res.Err, res.Rounds)
			}
			if res.Rounds != want.rounds || res.Merges != want.merges ||
				res.Moves != want.moves || res.RunsStarted != want.runs {
				t.Errorf("trajectory = rounds %d merges %d moves %d runs %d, want %d %d %d %d",
					res.Rounds, res.Merges, res.Moves, res.RunsStarted,
					want.rounds, want.merges, want.moves, want.runs)
			}
		})
	}
}
