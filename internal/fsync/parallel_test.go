// Determinism regression tests: two engines built from the same swarm
// reach identical outcomes, whatever the deprecated Config.Workers says.
// The engine ignores that field (every round runs on the goroutine calling
// Step); these tests and the workers=N subtests of the other suites stay
// until ROADMAP item 13 deletes it. The tests live in an external test
// package so they can drive the real algorithm (internal/core imports
// fsync, so the internal test package cannot).
package fsync_test

import (
	"fmt"
	"testing"

	"gridgather/internal/core"
	"gridgather/internal/fsync"
	"gridgather/internal/gen"
	"gridgather/internal/grid"
	"gridgather/internal/swarm"
)

// runWithWorkers gathers the swarm with the given deprecated worker count
// and returns the result plus the final cell set.
func runWithWorkers(t *testing.T, s *swarm.Swarm, workers int) (fsync.Result, []grid.Point) {
	t.Helper()
	eng := fsync.New(s, core.Default(), fsync.Config{
		MaxRounds:         fsync.DefaultBudget(s.Len()).MaxRounds,
		CheckConnectivity: true,
		Workers:           workers,
	})
	res := eng.Run()
	return res, eng.Swarm().Cells()
}

// TestParallelDeterminism runs the same workloads at several deprecated
// worker counts and requires identical Results and identical final cell
// sets.
func TestParallelDeterminism(t *testing.T) {
	workloads := []struct {
		name  string
		build func() *swarm.Swarm
	}{
		{"line", func() *swarm.Swarm { return gen.Line(80) }},
		{"hollow", func() *swarm.Swarm { return gen.Hollow(21, 21) }},
		{"staircase", func() *swarm.Swarm { return gen.Staircase(90, 1) }},
		{"blob", func() *swarm.Swarm { return gen.RandomBlob(120, 42) }},
		{"tree", func() *swarm.Swarm { return gen.RandomTree(100, 7) }},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			serialRes, serialCells := runWithWorkers(t, w.build(), 1)
			if serialRes.Err != nil || !serialRes.Gathered {
				t.Fatalf("serial run failed: %+v", serialRes)
			}
			for _, workers := range []int{2, 8} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					parRes, parCells := runWithWorkers(t, w.build(), workers)
					if parRes != serialRes {
						t.Errorf("result diverged:\n workers=1: %+v\n workers=%d: %+v",
							serialRes, workers, parRes)
					}
					if len(parCells) != len(serialCells) {
						t.Fatalf("final cell count diverged: %d vs %d",
							len(serialCells), len(parCells))
					}
					for i := range serialCells {
						if parCells[i] != serialCells[i] {
							t.Fatalf("final cells diverged at %d: %v vs %v",
								i, serialCells[i], parCells[i])
						}
					}
				})
			}
		})
	}
}

// TestParallelRoundByRound locks the equivalence down to every intermediate
// round, not just the end state: two engines stepped in lockstep with
// different deprecated worker counts must agree on the full occupancy and
// run states after each round.
func TestParallelRoundByRound(t *testing.T) {
	build := func() *swarm.Swarm { return gen.Hollow(15, 15) }
	a := fsync.New(build(), core.Default(), fsync.Config{Workers: 1})
	b := fsync.New(build(), core.Default(), fsync.Config{Workers: 8})
	for r := 0; r < 400 && !a.Gathered(); r++ {
		if err := a.Step(); err != nil {
			t.Fatalf("serial step %d: %v", r, err)
		}
		if err := b.Step(); err != nil {
			t.Fatalf("parallel step %d: %v", r, err)
		}
		if !a.Swarm().Equal(b.Swarm()) {
			t.Fatalf("round %d: occupancy diverged\nserial:\n%s\nparallel:\n%s",
				a.Round(), a.Swarm(), b.Swarm())
		}
		for _, p := range a.Swarm().Cells() {
			sa, sb := a.StateAt(p), b.StateAt(p)
			if len(sa.Runs) != len(sb.Runs) {
				t.Fatalf("round %d: run count at %v diverged: %d vs %d",
					a.Round(), p, len(sa.Runs), len(sb.Runs))
			}
			for i := range sa.Runs {
				if sa.Runs[i] != sb.Runs[i] {
					t.Fatalf("round %d: run state at %v diverged: %v vs %v",
						a.Round(), p, sa.Runs[i], sb.Runs[i])
				}
			}
		}
	}
	if !a.Gathered() || !b.Gathered() {
		t.Fatalf("round budget exhausted: serial gathered=%v parallel gathered=%v",
			a.Gathered(), b.Gathered())
	}
}
