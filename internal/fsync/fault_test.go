// Differential suite for the fault-injection layer. The headline proof is
// zero perturbation: an engine carrying an all-zero-probability fault plan
// ("crash:p=0+noise:p=0" — the crash-aware activation path, the noise draw
// and the fault-aware Gathered all engaged) must be bit-identical round by
// round to the fault-free engine, across the seeded workload corpus, every
// scheduler family. The planted tests drive the
// complementary direction: known crashes at known rounds, after which the
// survivors must still gather under every scheduler family; a planted
// disconnection must latch graceful degradation at exactly the round the
// fault-free run aborts; and a mid-run snapshot must carry the crash marks
// and the fault-RNG cursor so the restored run resumes bit-identically.
//
// The workers=N subtests set the deprecated Config.Workers, which the
// engine ignores; they stay until ROADMAP item 13 deletes the field.
package fsync_test

import (
	"fmt"
	"testing"

	"gridgather/internal/baseline/asyncseq"
	"gridgather/internal/core"
	"gridgather/internal/fault"
	"gridgather/internal/fsync"
	"gridgather/internal/gen"
	"gridgather/internal/sched"
	"gridgather/internal/swarm"
)

// faultConfig assembles an engine config for the given scheduler spec and
// fault spec ("" = fault-free), greedy under relaxed schedulers, the
// paper's algorithm under FSYNC.
func faultConfig(t *testing.T, s *swarm.Swarm, spec, faults string, workers int) (fsync.Algorithm, fsync.Config, int) {
	t.Helper()
	var alg fsync.Algorithm = core.Default()
	var sch sched.Scheduler
	if spec != "fsync" {
		alg = asyncseq.Algorithm{}
		var err error
		if sch, err = sched.Parse(spec, 42); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := fault.Parse(faults, 42)
	if err != nil {
		t.Fatal(err)
	}
	budget := fsync.DefaultBudget(s.Len())
	if sch != nil {
		budget = budget.Scale(sch.Fairness(s.Len()))
	}
	return alg, fsync.Config{
		MaxRounds:         budget.MaxRounds,
		NoMergeLimit:      budget.NoMergeLimit,
		CheckConnectivity: true,
		StrictViews:       true,
		Workers:           workers,
		Scheduler:         sch,
		Faults:            plan,
	}, budget.MaxRounds
}

// TestFaultZeroPerturbationDifferential is the tentpole's acceptance bar:
// a zero-probability fault plan engages every fault code path (crash-aware
// activation, noise draws, the fault-aware Gathered) without changing a
// single observable bit of the simulation.
func TestFaultZeroPerturbationDifferential(t *testing.T) {
	const n = 56
	specs := []string{"fsync", "ssync-rr:3", "ssync-rand:3", "ssync-lazy:5", "async:8"}
	for _, w := range gen.SeededCatalog() {
		for _, spec := range specs {
			for _, workers := range []int{1, 4, 16} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", w.Name, spec, workers), func(t *testing.T) {
					s := w.Build(n, 42)
					algC, cfgC, maxRounds := faultConfig(t, s, spec, "", workers)
					algF, cfgF, _ := faultConfig(t, s, spec, "crash:p=0+noise:p=0", workers)
					clean := fsync.New(s, algC, cfgC)
					faulty := fsync.New(s, algF, cfgF)
					compareEngines(t, clean, faulty)
					for r := 0; r < maxRounds && !clean.Gathered(); r++ {
						if err := clean.Step(); err != nil {
							t.Fatalf("clean step %d: %v", r, err)
						}
						if err := faulty.Step(); err != nil {
							t.Fatalf("faulty step %d: %v", r, err)
						}
						compareEngines(t, clean, faulty)
						if faulty.Crashes() != 0 || faulty.Degraded() {
							t.Fatalf("round %d: zero-probability plan crashed %d / degraded %v",
								faulty.Round(), faulty.Crashes(), faulty.Degraded())
						}
					}
					if !clean.Gathered() || !faulty.Gathered() {
						t.Fatalf("round budget exhausted: clean gathered=%v faulty gathered=%v",
							clean.Gathered(), faulty.Gathered())
					}
				})
			}
		}
	}
}

// TestPlantedCrashGathersSurvivors mass-crashes a pinned set of robots at a
// known round and requires the survivors to gather under every scheduler
// family — crashed robots are frozen scenery the live robots merge onto or
// around. The greedy algorithm drives all runs (the paper's algorithm makes
// no fault-tolerance claim).
func TestPlantedCrashGathersSurvivors(t *testing.T) {
	const n = 48
	const faults = "crash-at:r=10,k=8@7"
	specs := []string{"fsync", "ssync-rr:3", "ssync-rand:3", "ssync-lazy:5", "async:8"}
	for _, spec := range specs {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", spec, workers), func(t *testing.T) {
				s := gen.RandomBlob(n, 42)
				plan, err := fault.Parse(faults, 42)
				if err != nil {
					t.Fatal(err)
				}
				var sch sched.Scheduler
				if spec != "fsync" {
					if sch, err = sched.Parse(spec, 42); err != nil {
						t.Fatal(err)
					}
				}
				budget := fsync.DefaultBudget(n)
				if sch != nil {
					budget = budget.Scale(sch.Fairness(n))
				}
				eng := fsync.New(s, asyncseq.Algorithm{}, fsync.Config{
					MaxRounds:         budget.MaxRounds,
					NoMergeLimit:      budget.NoMergeLimit,
					CheckConnectivity: true,
					StrictViews:       true,
					Workers:           workers,
					Scheduler:         sch,
					Faults:            plan,
				})
				for r := 0; r < budget.MaxRounds && !eng.Gathered(); r++ {
					if err := eng.Step(); err != nil {
						t.Fatalf("step %d: %v", r, err)
					}
				}
				if !eng.Gathered() {
					t.Fatalf("survivors did not gather within %d rounds (crashes=%d live-crashed=%d degraded=%v)",
						budget.MaxRounds, eng.Crashes(), eng.CrashedLive(), eng.Degraded())
				}
				if eng.Crashes() != 8 {
					t.Fatalf("crashes = %d, want 8", eng.Crashes())
				}
				if eng.CrashedLive() > eng.Crashes() || eng.CrashedLive() < 0 {
					t.Fatalf("crashed-live = %d out of range [0, %d]", eng.CrashedLive(), eng.Crashes())
				}
			})
		}
	}
}

// TestFaultSnapshotRestoreLockstep cuts a faulty run mid-flight (live
// crash and noise probabilities, so the fault RNG cursor and crash marks
// are mid-schedule), snapshots, restores, and requires the restored engine
// to stay bit-identical with the original to the end — including the crash
// counters and every future fault draw.
func TestFaultSnapshotRestoreLockstep(t *testing.T) {
	const n = 48
	const faults = "crash:p=0.004+noise:p=0.02"
	for _, spec := range []string{"fsync", "ssync-rand:3"} {
		t.Run(spec, func(t *testing.T) {
			s := gen.RandomBlob(n, 42)
			alg, cfg, maxRounds := faultConfig(t, s, spec, faults, 4)
			orig := fsync.New(s, alg, cfg)
			for r := 0; r < 25 && !orig.Gathered(); r++ {
				if err := orig.Step(); err != nil {
					t.Fatalf("pre-snapshot step %d: %v", r, err)
				}
			}
			state := orig.AppendState(nil)

			// A fresh config: the restore path re-parses the fault spec and
			// then overwrites the plan's cursor from the snapshot.
			algR, cfgR, _ := faultConfig(t, s, spec, faults, 1)
			restored, rest, err := fsync.NewRestored(algR, cfgR, state)
			if err != nil {
				t.Fatal(err)
			}
			if len(rest) != 0 {
				t.Fatalf("%d bytes left after restore", len(rest))
			}
			if again := restored.AppendState(nil); string(again) != string(state) {
				t.Fatal("restored engine does not re-encode to the same snapshot bytes")
			}
			compareEngines(t, orig, restored)
			if orig.Crashes() != restored.Crashes() || orig.CrashedLive() != restored.CrashedLive() {
				t.Fatalf("crash counters diverged on restore: %d/%d vs %d/%d",
					orig.Crashes(), orig.CrashedLive(), restored.Crashes(), restored.CrashedLive())
			}
			for r := 0; r < maxRounds && !orig.Gathered(); r++ {
				if err := orig.Step(); err != nil {
					t.Fatalf("original step %d: %v", r, err)
				}
				if err := restored.Step(); err != nil {
					t.Fatalf("restored step %d: %v", r, err)
				}
				compareEngines(t, orig, restored)
				if orig.Crashes() != restored.Crashes() || orig.CrashedLive() != restored.CrashedLive() ||
					orig.Degraded() != restored.Degraded() || orig.DegradedRound() != restored.DegradedRound() {
					t.Fatalf("round %d: fault state diverged after restore", orig.Round())
				}
			}
			if !orig.Gathered() || !restored.Gathered() {
				t.Fatalf("gather diverged: original=%v restored=%v", orig.Gathered(), restored.Gathered())
			}
		})
	}
}

// TestFaultDegradationVsAbort severs the dumbbell's bridge (the planted
// disconnection of the connectivity suite) and checks the two regimes
// disagree exactly as specified: the fault-free engine aborts with
// ErrDisconnected, while an engine carrying a fault plan latches graceful
// degradation at the identical round and keeps stepping.
func TestFaultDegradationVsAbort(t *testing.T) {
	const cut = 7
	build := func(faults string) *fsync.Engine {
		plan, err := fault.Parse(faults, 42)
		if err != nil {
			t.Fatal(err)
		}
		return fsync.New(dumbbell(), bridgeCutAlg{cutRound: cut}, fsync.Config{
			MaxRounds:         1000,
			CheckConnectivity: true,
			StrictViews:       true,
			Faults:            plan,
		})
	}

	clean := build("")
	abortRound := -1
	for r := 0; r < 1000; r++ {
		if err := clean.Step(); err != nil {
			dis, ok := err.(fsync.ErrDisconnected)
			if !ok {
				t.Fatalf("clean step %d: %v (want ErrDisconnected)", r, err)
			}
			abortRound = dis.Round
			break
		}
	}
	if abortRound < 0 {
		t.Fatal("the planted cut never disconnected the clean engine")
	}

	faulty := build("noise:p=0")
	for r := 0; r < abortRound+20; r++ {
		if err := faulty.Step(); err != nil {
			t.Fatalf("faulty step %d: %v (degraded engines must not abort on disconnection)", r, err)
		}
	}
	if !faulty.Degraded() {
		t.Fatal("faulty engine never latched degradation")
	}
	if faulty.DegradedRound() != abortRound {
		t.Fatalf("degraded at round %d, clean engine aborted at round %d", faulty.DegradedRound(), abortRound)
	}
	if faulty.Gathered() {
		t.Fatal("a split dumbbell of 3×3 blocks cannot be gathered")
	}
}
