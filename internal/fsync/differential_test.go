// Differential tests for the parallel round pipeline: an engine with
// sharded Compute must be bit-identical to the serial path round by round
// — positions, run states (including IDs), logical clocks, slot
// assignment and merge/run counters — across the seeded workload corpus,
// every scheduler family, and every worker count. Any dependence of the
// outcome on how the activation set was sharded shows up here on the
// first broken round.
package fsync_test

import (
	"fmt"
	"testing"

	"gridgather/internal/baseline/asyncseq"
	"gridgather/internal/core"
	"gridgather/internal/fsync"
	"gridgather/internal/gen"
	"gridgather/internal/grid"
	"gridgather/internal/robot"
	"gridgather/internal/sched"
	"gridgather/internal/swarm"
)

// stateEast is a planted eastbound run state for the mid-run scenario.
func stateEast() robot.State {
	return robot.State{Runs: []robot.Run{{Dir: grid.East, Inside: grid.North}}}
}

// pipelineEngines builds one serial (workers=1) reference engine and one
// parallel engine over the same swarm, scheduler spec and worker count.
// The paper's algorithm drives the FSYNC runs; the scheduler-robust greedy
// strategy drives the relaxed ones (the paper's algorithm is FSYNC-only,
// see TestPaperAlgorithmRequiresFSYNC).
func pipelineEngines(t *testing.T, s *swarm.Swarm, spec string, workers int) (serial, parallel *fsync.Engine, maxRounds int) {
	t.Helper()
	build := func(workers int) *fsync.Engine {
		var alg fsync.Algorithm = core.Default()
		var sch sched.Scheduler
		if spec != "fsync" {
			alg = asyncseq.Algorithm{}
			var err error
			if sch, err = sched.Parse(spec, 42); err != nil {
				t.Fatal(err)
			}
		}
		budget := fsync.DefaultBudget(s.Len())
		if sch != nil {
			budget = budget.Scale(sch.Fairness(s.Len()))
		}
		maxRounds = budget.MaxRounds
		return fsync.New(s, alg, fsync.Config{
			MaxRounds:         budget.MaxRounds,
			NoMergeLimit:      budget.NoMergeLimit,
			CheckConnectivity: true,
			StrictViews:       true,
			Workers:           workers,
			Scheduler:         sch,
		})
	}
	return build(1), build(workers), maxRounds
}

// compareEngines fails on the first round-state divergence between the
// serial reference and the parallel engine.
func compareEngines(t *testing.T, serial, parallel *fsync.Engine) {
	t.Helper()
	oc, dc := serial.World().Cells(), parallel.World().Cells()
	if len(oc) != len(dc) {
		t.Fatalf("round %d: population diverged: %d vs %d", serial.Round(), len(oc), len(dc))
	}
	os, ds := serial.World().Slots(), parallel.World().Slots()
	for i := range oc {
		if oc[i] != dc[i] {
			t.Fatalf("round %d: cell order diverged at %d: %v vs %v", serial.Round(), i, oc[i], dc[i])
		}
		if os[i] != ds[i] {
			t.Fatalf("round %d: slot at %v diverged: %d vs %d", serial.Round(), oc[i], os[i], ds[i])
		}
		sa, sb := serial.StateAt(oc[i]), parallel.StateAt(oc[i])
		if len(sa.Runs) != len(sb.Runs) {
			t.Fatalf("round %d: run count at %v diverged: %d vs %d",
				serial.Round(), oc[i], len(sa.Runs), len(sb.Runs))
		}
		for j := range sa.Runs {
			if sa.Runs[j] != sb.Runs[j] {
				t.Fatalf("round %d: run state at %v diverged: %v vs %v",
					serial.Round(), oc[i], sa.Runs[j], sb.Runs[j])
			}
		}
		if la, lb := serial.LocalRound(oc[i]), parallel.LocalRound(oc[i]); la != lb {
			t.Fatalf("round %d: logical clock at %v diverged: %d vs %d", serial.Round(), oc[i], la, lb)
		}
	}
	if serial.Merges() != parallel.Merges() || serial.RunsStarted() != parallel.RunsStarted() ||
		serial.RoundMerges() != parallel.RoundMerges() {
		t.Fatalf("round %d: counters diverged: merges %d/%d runs %d/%d roundMerges %d/%d",
			serial.Round(), serial.Merges(), parallel.Merges(),
			serial.RunsStarted(), parallel.RunsStarted(), serial.RoundMerges(), parallel.RoundMerges())
	}
	if og, dg := serial.Gathered(), parallel.Gathered(); og != dg {
		t.Fatalf("round %d: Gathered diverged: %v vs %v", serial.Round(), og, dg)
	}
}

// TestPipelineDifferential is the tentpole's determinism proof: for every
// seeded-catalog workload × scheduler family × worker count, the
// parallel pipeline reproduces the serial engine bit-identically on every
// round until both gather.
func TestPipelineDifferential(t *testing.T) {
	const n = 56
	specs := []string{"fsync", "ssync-rr:3", "ssync-rand:3", "ssync-lazy:5", "async:8"}
	for _, w := range gen.SeededCatalog() {
		for _, spec := range specs {
			for _, workers := range []int{2, 4, 8, 16} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", w.Name, spec, workers), func(t *testing.T) {
					s := w.Build(n, 42)
					serial, parallel, maxRounds := pipelineEngines(t, s, spec, workers)
					compareEngines(t, serial, parallel)
					for r := 0; r < maxRounds && !serial.Gathered(); r++ {
						if err := serial.Step(); err != nil {
							t.Fatalf("serial step %d: %v", r, err)
						}
						if err := parallel.Step(); err != nil {
							t.Fatalf("parallel step %d: %v", r, err)
						}
						compareEngines(t, serial, parallel)
					}
					if !serial.Gathered() || !parallel.Gathered() {
						t.Fatalf("round budget exhausted: serial gathered=%v parallel gathered=%v",
							serial.Gathered(), parallel.Gathered())
					}
				})
			}
		}
	}
}

// TestPipelineDifferentialMidRunState seeds planted mid-run scenarios
// (SetState + SetRound scaffolding) and checks serial and parallel engines
// still agree — covering the test-scaffolding write paths the corpus runs
// don't reach.
func TestPipelineDifferentialMidRunState(t *testing.T) {
	build := func(workers int) *fsync.Engine {
		s := gen.Hollow(12, 12)
		eng := fsync.New(s, core.Default(), fsync.Config{
			MaxRounds:   2000,
			StrictViews: true,
			Workers:     workers,
		})
		eng.SetRound(3) // off the run-start schedule
		for i, p := range eng.World().Cells() {
			if i%7 == 0 {
				eng.SetState(p, stateEast())
			}
		}
		return eng
	}
	serial, parallel := build(1), build(8)
	for r := 0; r < 300 && !serial.Gathered(); r++ {
		if err := serial.Step(); err != nil {
			t.Fatalf("serial step %d: %v", r, err)
		}
		if err := parallel.Step(); err != nil {
			t.Fatalf("parallel step %d: %v", r, err)
		}
		compareEngines(t, serial, parallel)
	}
}
