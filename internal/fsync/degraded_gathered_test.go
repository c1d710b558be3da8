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

// TestGatheredCacheFollowsWrites asks Gathered three times before and
// after every round and holds each answer to the uncached verdict. At the
// end of each run it crashes the remaining live robots one by one through
// World(), as test scaffolding writes to the world directly, and asks
// again after each crash. Once no live robot is left a faulty swarm can
// never gather, so the verdict of every run that ended gathered with
// crashed robots present, or degraded, turns false: a cache that missed a
// direct world write would answer stale. Some run must flip that way.
func TestGatheredCacheFollowsWrites(t *testing.T) {
	plans := []struct{ sched, faults string }{
		{"ssync-rr:3", "crash-at:r=4,k=2@1"},
		{"ssync-rr:2", "crash:p=0.002@3"},
		{"fsync", "crash-at:r=2,k=1@2"},
	}
	var flips int
	for _, family := range []string{"spiral", "hollow", "blob", "line"} {
		w, ok := gen.Lookup(family)
		if !ok {
			t.Fatalf("unknown workload %q", family)
		}
		for _, p := range plans {
			t.Run(fmt.Sprintf("%s/%s/%s", family, p.sched, p.faults), func(t *testing.T) {
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
				eng := fsync.New(w.Build(60, 42), core.Default(), fsync.Config{
					CheckConnectivity: true,
					Workers:           1,
					Scheduler:         sch,
					Faults:            plan,
				})
				check := func(when string) {
					t.Helper()
					want := eng.GatheredUncached()
					for k := 0; k < 3; k++ {
						if got := eng.Gathered(); got != want {
							t.Fatalf("round %d, %s, ask %d: Gathered = %v, uncached %v", eng.Round(), when, k, got, want)
						}
					}
				}
				for r := 0; r < 600; r++ {
					check("before the round")
					if eng.Gathered() || eng.Step() != nil {
						break
					}
					check("after the round")
				}
				before := eng.Gathered()
				world := eng.World()
				for _, c := range append([]grid.Point(nil), world.Cells()...) {
					if !world.CrashedAt(c) {
						world.Crash(c)
						check("after a direct crash")
					}
				}
				if before && !eng.Gathered() {
					flips++
				}
			})
		}
	}
	if flips == 0 {
		t.Fatal("no run's verdict turned false under direct crashes; the cache's invalidation went unexercised")
	}
	t.Logf("%d runs flipped to not gathered under direct crashes", flips)
}
