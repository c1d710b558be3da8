// Scheduler integration tests: the FSYNC scheduler must be bit-identical
// to the engine's nil-scheduler fast path (which is the pre-refactor FSYNC
// engine) round by round, and the relaxed SSYNC and ASYNC schedulers must
// gather the whole workload corpus without ever violating swarm
// connectivity. Like parallel_test.go this lives in an external test
// package so it can drive the real algorithm. The workers=N subtests set
// the deprecated Config.Workers, which the engine ignores; they stay until
// ROADMAP item 13 deletes the field.
package fsync_test

import (
	"fmt"
	"testing"

	"gridgather/internal/baseline/asyncseq"
	"gridgather/internal/core"
	"gridgather/internal/fsync"
	"gridgather/internal/gen"
	"gridgather/internal/sched"
	"gridgather/internal/swarm"
)

// stepCompare steps two engines in lockstep and fails on the first
// divergence in occupancy or per-robot run states.
func stepCompare(t *testing.T, a, b *fsync.Engine, maxRounds int) {
	t.Helper()
	for r := 0; r < maxRounds && !a.Gathered(); r++ {
		if err := a.Step(); err != nil {
			t.Fatalf("reference step %d: %v", r, err)
		}
		if err := b.Step(); err != nil {
			t.Fatalf("candidate step %d: %v", r, err)
		}
		if !a.Swarm().Equal(b.Swarm()) {
			t.Fatalf("round %d: occupancy diverged\nreference:\n%s\ncandidate:\n%s",
				a.Round(), a.Swarm(), b.Swarm())
		}
		if a.Merges() != b.Merges() || a.RunsStarted() != b.RunsStarted() {
			t.Fatalf("round %d: counters diverged: merges %d vs %d, runs %d vs %d",
				a.Round(), a.Merges(), b.Merges(), a.RunsStarted(), b.RunsStarted())
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
			if la, lb := a.LocalRound(p), b.LocalRound(p); la != lb {
				t.Fatalf("round %d: logical clock at %v diverged: %d vs %d",
					a.Round(), p, la, lb)
			}
		}
	}
	if !a.Gathered() || !b.Gathered() {
		t.Fatalf("round budget exhausted: reference gathered=%v candidate gathered=%v",
			a.Gathered(), b.Gathered())
	}
}

// TestFSYNCSchedulerBitIdentical proves the tentpole's refactor invariant:
// the engine with an explicit FSYNC scheduler (general activation-set path,
// logical clocks and all) reproduces the nil-scheduler fast path — i.e. the
// pre-refactor engine — bit-identically round by round.
func TestFSYNCSchedulerBitIdentical(t *testing.T) {
	workloads := []struct {
		name  string
		build func() *swarm.Swarm
	}{
		{"line", func() *swarm.Swarm { return gen.Line(70) }},
		{"hollow", func() *swarm.Swarm { return gen.Hollow(16, 16) }},
		{"staircase", func() *swarm.Swarm { return gen.Staircase(80, 1) }},
		{"blob", func() *swarm.Swarm { return gen.RandomBlob(90, 42) }},
	}
	for _, w := range workloads {
		for _, workers := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", w.name, workers), func(t *testing.T) {
				s := w.build()
				budget := fsync.DefaultBudget(s.Len())
				ref := fsync.New(s, core.Default(), fsync.Config{})
				cand := fsync.New(w.build(), core.Default(), fsync.Config{
					Workers:   workers,
					Scheduler: sched.FSYNC(),
				})
				stepCompare(t, ref, cand, budget.MaxRounds)
			})
		}
	}
}

// TestSchedulersGatherCorpus runs every workload family of the seeded
// catalog under each relaxed scheduler with per-round connectivity checking
// and the fairness-scaled canonical budget: the swarm must gather without a
// single connectivity violation. The algorithm is the scheduler-robust
// greedy strategy (asyncseq.Algorithm) — the paper's own algorithm is
// FSYNC-only by construction (its merge operations require all black robots
// of a configuration to hop in the same round; see
// TestPaperAlgorithmRequiresFSYNC). This is the acceptance bar for the
// SSYNC/ASYNC scenario axis: relaxed synchrony may slow gathering, but it
// must never break the model's central safety property.
func TestSchedulersGatherCorpus(t *testing.T) {
	const n = 56
	schedulers := []string{"ssync-rr:3", "ssync-rand:3", "ssync-lazy:5", "async:8"}
	for _, w := range gen.SeededCatalog() {
		for _, spec := range schedulers {
			t.Run(w.Name+"/"+spec, func(t *testing.T) {
				s := w.Build(n, 42)
				sch, err := sched.Parse(spec, 42)
				if err != nil {
					t.Fatal(err)
				}
				budget := fsync.DefaultBudget(s.Len()).Scale(sch.Fairness(s.Len()))
				eng := fsync.New(s, asyncseq.Algorithm{}, fsync.Config{
					MaxRounds:         budget.MaxRounds,
					NoMergeLimit:      budget.NoMergeLimit,
					CheckConnectivity: true,
					StrictViews:       true,
					Scheduler:         sch,
				})
				res := eng.Run()
				if res.Err != nil {
					t.Fatalf("%s on %s (n=%d): %v after %d rounds",
						spec, w.Name, res.InitialRobots, res.Err, res.Rounds)
				}
				if !res.Gathered {
					t.Fatalf("%s on %s: not gathered after %d rounds", spec, w.Name, res.Rounds)
				}
			})
		}
	}
}

// TestGreedyGathersUnderFSYNC covers the fourth quadrant: the local mutual
// exclusion rule makes the greedy strategy safe even with every robot active
// every round, at the price of locally serialized moves.
func TestGreedyGathersUnderFSYNC(t *testing.T) {
	for _, w := range gen.SeededCatalog() {
		t.Run(w.Name, func(t *testing.T) {
			s := w.Build(48, 42)
			budget := fsync.DefaultBudget(s.Len())
			eng := fsync.New(s, asyncseq.Algorithm{}, fsync.Config{
				MaxRounds:         budget.MaxRounds,
				NoMergeLimit:      budget.NoMergeLimit,
				CheckConnectivity: true,
				StrictViews:       true,
			})
			res := eng.Run()
			if res.Err != nil || !res.Gathered {
				t.Fatalf("greedy under fsync on %s failed: %+v", w.Name, res)
			}
		})
	}
}

// TestSequentialWidthOneGathers pins the asyncseq-generalization claim on a
// small instance: the pure one-robot-per-round ASYNC schedule (exactly the
// baseline's fair sequential scheduler) still gathers and never breaks
// connectivity.
func TestSequentialWidthOneGathers(t *testing.T) {
	s := gen.Hollow(7, 7)
	budget := fsync.DefaultBudget(s.Len()).Scale(sched.Sequential(1).Fairness(s.Len()))
	eng := fsync.New(s, asyncseq.Algorithm{}, fsync.Config{
		MaxRounds:         budget.MaxRounds,
		NoMergeLimit:      budget.NoMergeLimit,
		CheckConnectivity: true,
		Scheduler:         sched.Sequential(1),
	})
	res := eng.Run()
	if res.Err != nil || !res.Gathered {
		t.Fatalf("async:1 failed: %+v", res)
	}
}

// TestPaperAlgorithmRequiresFSYNC documents why the corpus test above runs
// the greedy strategy: the paper's merge operation is only safe when all
// black robots of a configuration hop in the same round, so under a relaxed
// scheduler a lone hopping robot can split its subboundary. The engine's
// connectivity checker catches this deterministically on a hollow square —
// the degradation the scheduler axis exists to measure.
func TestPaperAlgorithmRequiresFSYNC(t *testing.T) {
	s := gen.Hollow(7, 7)
	sch, err := sched.Parse("async:1", 1)
	if err != nil {
		t.Fatal(err)
	}
	budget := fsync.DefaultBudget(s.Len()).Scale(sch.Fairness(s.Len()))
	eng := fsync.New(s, core.Default(), fsync.Config{
		MaxRounds:         budget.MaxRounds,
		NoMergeLimit:      budget.NoMergeLimit,
		CheckConnectivity: true,
		Scheduler:         sch,
	})
	res := eng.Run()
	if res.Err == nil && res.Gathered {
		// Not a failure of the suite — but it would overturn the rationale
		// for the greedy strategy, so flag it loudly.
		t.Fatalf("paper algorithm unexpectedly gathered under async:1; revisit the corpus test setup")
	}
	if _, ok := res.Err.(fsync.ErrDisconnected); !ok {
		t.Logf("paper algorithm under async:1 aborted with %v (disconnection is the typical mode)", res.Err)
	}
}
