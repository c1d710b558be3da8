package fsync_test

import (
	"fmt"
	"testing"

	"gridgather/internal/core"
	"gridgather/internal/fault"
	"gridgather/internal/fsync"
	"gridgather/internal/gen"
	"gridgather/internal/grid"
	"gridgather/internal/sched"
	"gridgather/internal/swarm"
	"gridgather/internal/world"
)

// floodGathered is the degraded-mode gathering oracle, computed from the
// engine's exported swarm with a map-backed flood: the 4-connected
// component holding the most live robots wins, ties going to the component
// whose first cell in canonical order comes first, and the swarm has
// gathered iff that component's live robots fit in a 2×2 square. A robot
// is live unless w reports it crashed. On a connected swarm this is the
// fault-aware gathering condition over the whole swarm.
func floodGathered(s *swarm.Swarm, w *world.Dense) bool {
	seen := make(map[grid.Point]bool, s.Len())
	bestLive, bestFirst := 0, grid.Point{}
	bestBounds := grid.EmptyRect
	for _, first := range s.Cells() {
		if seen[first] {
			continue
		}
		live, bounds := 0, grid.EmptyRect
		seen[first] = true
		for stack := []grid.Point{first}; len(stack) > 0; {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !w.CrashedAt(p) {
				live++
				bounds = bounds.Include(p)
			}
			for _, d := range []grid.Point{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}} {
				if q := p.Add(d); s.Has(q) && !seen[q] {
					seen[q] = true
					stack = append(stack, q)
				}
			}
		}
		if live > bestLive || (live == bestLive && live > 0 && first.Less(bestFirst)) {
			bestLive, bestFirst, bestBounds = live, first, bounds
		}
	}
	return bestLive > 0 && bestBounds.FitsIn2x2()
}

// TestDegradedGatheredMatchesFlood holds the engine's fault-aware Gathered
// to floodGathered after every round of paper-algorithm runs under crash
// and sensor-noise plans with the connectivity check on. The plans split
// swarms both by crashes and by noise-misled moves, so the scenario set
// must reach degraded rounds with crashed robots present and degraded
// rounds with none.
func TestDegradedGatheredMatchesFlood(t *testing.T) {
	plans := []struct{ sched, faults string }{
		{"ssync-rr:3", "crash-at:r=4,k=2@1"},
		{"fsync", "noise:p=0.03@5"},
		{"ssync-rr:3", "noise:p=0.01@7"},
		{"ssync-rr:2", "crash:p=0.002@3"},
	}
	const maxRounds = 600
	var withCrashed, noCrashed int
	for _, family := range []string{"spiral", "staircase", "tree", "hollow", "blob", "line"} {
		w, ok := gen.Lookup(family)
		if !ok {
			t.Fatalf("unknown workload %q", family)
		}
		for _, n := range []int{60, 120} {
			for _, p := range plans {
				t.Run(fmt.Sprintf("%s/n=%d/%s/%s", family, n, p.sched, p.faults), func(t *testing.T) {
					s := w.Build(n, 42)
					var sch sched.Scheduler
					if p.sched != "fsync" {
						var err error
						if sch, err = sched.Parse(p.sched, 1); err != nil {
							t.Fatal(err)
						}
					}
					plan, err := fault.Parse(p.faults, 1)
					if err != nil {
						t.Fatal(err)
					}
					eng := fsync.New(s, core.Default(), fsync.Config{
						CheckConnectivity: true,
						Workers:           1,
						Scheduler:         sch,
						Faults:            plan,
					})
					for r := 0; ; r++ {
						if got, want := eng.Gathered(), floodGathered(eng.Swarm(), eng.World()); got != want {
							t.Fatalf("round %d (degraded=%v, crashed live=%d): Gathered = %v, flood oracle = %v",
								eng.Round(), eng.Degraded(), eng.CrashedLive(), got, want)
						}
						if eng.Degraded() {
							if eng.CrashedLive() > 0 {
								withCrashed++
							} else {
								noCrashed++
							}
						}
						if r == maxRounds || eng.Gathered() || eng.Step() != nil {
							break
						}
					}
				})
			}
		}
	}
	t.Logf("degraded rounds: %d with crashed robots, %d without", withCrashed, noCrashed)
	if withCrashed == 0 || noCrashed == 0 {
		t.Fatalf("degraded rounds: %d with crashed robots, %d without; want both > 0", withCrashed, noCrashed)
	}
}
