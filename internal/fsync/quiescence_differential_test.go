// Differential oracle suite for the quiescence layer: an engine replaying
// cached quiescent actions for robots whose dirty-region tracking proves
// their views unchanged must be BIT-IDENTICAL — cells, slots, run states +
// IDs, logical clocks, counters, and the final Result — to an engine
// running the same algorithm inside recomputeAll, which hides its Periodic
// declaration so that every robot recomputes every round, across the
// seeded workload corpus, every scheduler family, fault plans (crashes and sensor noise), and a mid-run snapshot/restore. The
// comparison is the engines' own canonical snapshot encoding, so any state
// the codec can see diverging fails the round it diverges.
//
// The workers=N subtests set the deprecated Config.Workers, which the
// engine ignores; they stay until ROADMAP item 13 deletes the field.
package fsync_test

import (
	"bytes"
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

// recomputeAll embeds only the Algorithm interface, so it does not
// implement fsync.Periodic and the engine turns quiescence off: the
// reference engine of this suite recomputes every robot every round.
type recomputeAll struct{ fsync.Algorithm }

// qEngines builds two engines over the same swarm, scheduler spec, fault
// spec and deprecated worker count: one on the quiescence fast path, one running the
// same algorithm inside recomputeAll. Each engine gets its own freshly
// parsed scheduler and fault plan (both carry consumable RNG cursors).
func qEngines(t *testing.T, s *swarm.Swarm, spec, faults string, workers int) (quick, oracle *fsync.Engine, maxRounds int) {
	t.Helper()
	build := func(fullRecompute bool) *fsync.Engine {
		var alg fsync.Algorithm = core.Default()
		var sch sched.Scheduler
		if spec != "fsync" {
			alg = asyncseq.Algorithm{}
			var err error
			if sch, err = sched.Parse(spec, 42); err != nil {
				t.Fatal(err)
			}
		}
		var plan *fault.Plan
		if faults != "" {
			var err error
			if plan, err = fault.Parse(faults, 42); err != nil {
				t.Fatal(err)
			}
		}
		budget := fsync.DefaultBudget(s.Len())
		if sch != nil {
			budget = budget.Scale(sch.Fairness(s.Len()))
		}
		maxRounds = budget.MaxRounds
		if fullRecompute {
			alg = recomputeAll{alg}
		}
		return fsync.New(s, alg, fsync.Config{
			MaxRounds:         budget.MaxRounds,
			NoMergeLimit:      budget.NoMergeLimit,
			CheckConnectivity: true,
			Workers:           workers,
			Scheduler:         sch,
			Faults:            plan,
		})
	}
	return build(false), build(true), maxRounds
}

// qStepBoth advances both engines one round and fails on any divergence:
// abort behaviour, full canonical state, or the gathered verdict. Returns
// true when the run is over (both gathered or both aborted identically).
func qStepBoth(t *testing.T, quick, oracle *fsync.Engine) bool {
	t.Helper()
	errQ, errO := quick.Step(), oracle.Step()
	if (errQ == nil) != (errO == nil) || (errQ != nil && errQ.Error() != errO.Error()) {
		t.Fatalf("round %d: abort diverged: quiescent %v, full-recompute %v",
			quick.Round(), errQ, errO)
	}
	if errQ != nil {
		return true
	}
	if !bytes.Equal(quick.AppendState(nil), oracle.AppendState(nil)) {
		t.Fatalf("round %d: canonical state diverged between quiescent and full-recompute engines",
			quick.Round())
	}
	if g, o := quick.Gathered(), oracle.Gathered(); g != o {
		t.Fatalf("round %d: gathered diverged: quiescent %v, full-recompute %v", quick.Round(), g, o)
	}
	return quick.Gathered()
}

// TestQuiescenceDifferential is the headline suite: seeded catalog ×
// scheduler families × worker counts, quiescent vs full-recompute engines
// in lockstep until both gather. It also asserts the fast path actually
// engaged (skips happened somewhere across the grid — a suite that never
// skips proves nothing).
func TestQuiescenceDifferential(t *testing.T) {
	const n = 56
	specs := []string{"fsync", "ssync-rr:3", "ssync-rand:3", "ssync-lazy:5", "async:8"}
	totalSkipped := 0
	for _, w := range gen.SeededCatalog() {
		for _, spec := range specs {
			for _, workers := range []int{1, 4, 16} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", w.Name, spec, workers), func(t *testing.T) {
					s := w.Build(n, 42)
					quick, oracle, maxRounds := qEngines(t, s, spec, "", workers)
					for r := 0; r < maxRounds; r++ {
						if qStepBoth(t, quick, oracle) {
							break
						}
					}
					if !quick.Gathered() || !oracle.Gathered() {
						t.Fatalf("round budget exhausted: quiescent gathered=%v, full-recompute gathered=%v",
							quick.Gathered(), oracle.Gathered())
					}
					st := quick.QuiesceStats()
					if !st.Enabled {
						t.Fatal("quiescence never enabled on the fast-path engine")
					}
					if ost := oracle.QuiesceStats(); ost.Enabled || ost.Skipped != 0 {
						t.Fatalf("oracle engine ran the fast path: %+v", ost)
					}
					totalSkipped += st.Skipped
				})
			}
		}
	}
	if totalSkipped == 0 {
		t.Fatal("no activation was ever skipped across the whole grid — the fast path never engaged")
	}
}

// TestQuiescenceDifferentialFaults drives the fault axis: sensor noise
// (noise-flipped activations must always recompute and never poison the
// verdict cache) and crash-stop faults (a crash flips the failure detector
// with no occupancy change — the dirty marks must cover it), plus their
// combination, over scheduler families and worker counts.
func TestQuiescenceDifferentialFaults(t *testing.T) {
	const n = 56
	faults := []string{
		"noise:p=0.05",
		"crash:p=0.002",
		"crash-at:r=12,k=6+noise:p=0.03",
	}
	for _, fspec := range faults {
		for _, spec := range []string{"fsync", "ssync-rr:3", "async:8"} {
			for _, workers := range []int{1, 4, 16} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", fspec, spec, workers), func(t *testing.T) {
					s := gen.SeededCatalog()[0].Build(n, 42)
					quick, oracle, maxRounds := qEngines(t, s, spec, fspec, workers)
					for r := 0; r < maxRounds; r++ {
						if qStepBoth(t, quick, oracle) {
							break
						}
					}
					if g, o := quick.Gathered(), oracle.Gathered(); g != o {
						t.Fatalf("gather diverged: quiescent %v, full-recompute %v", g, o)
					}
				})
			}
		}
	}
}

// TestQuiescenceSnapshotRestore cuts a quiescent run mid-flight, snapshots
// it, and restores the snapshot twice — once with the fast path, once
// inside recomputeAll. All three engines must stay in lockstep to the end:
// the verdict masks are not snapshot state, so a restored engine must
// converge bit-identically from a cold cache.
func TestQuiescenceSnapshotRestore(t *testing.T) {
	s := gen.SeededCatalog()[0].Build(56, 42)
	quick, _, maxRounds := qEngines(t, s, "fsync", "", 0)
	// The line gathers in 27 rounds at this size: cut well before that.
	for r := 0; r < 10; r++ {
		if err := quick.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap := quick.AppendState(nil)

	restore := func(alg fsync.Algorithm) *fsync.Engine {
		t.Helper()
		eng, rest, err := fsync.NewRestored(alg, fsync.Config{
			MaxRounds:         maxRounds,
			CheckConnectivity: true,
		}, snap)
		if err != nil {
			t.Fatal(err)
		}
		if len(rest) != 0 {
			t.Fatalf("%d bytes left after restore", len(rest))
		}
		return eng
	}
	rQuick, rFull := restore(core.Default()), restore(recomputeAll{core.Default()})
	for r := 0; r < maxRounds && !quick.Gathered(); r++ {
		done := qStepBoth(t, quick, rFull)
		if err := rQuick.Step(); err != nil {
			t.Fatalf("restored quiescent engine aborted: %v", err)
		}
		if !bytes.Equal(quick.AppendState(nil), rQuick.AppendState(nil)) {
			t.Fatalf("round %d: restored quiescent engine diverged from the original", quick.Round())
		}
		if done {
			break
		}
	}
	if !quick.Gathered() || !rQuick.Gathered() || !rFull.Gathered() {
		t.Fatalf("gather diverged: original=%v restored-quiescent=%v restored-full=%v",
			quick.Gathered(), rQuick.Gathered(), rFull.Gathered())
	}
}

// TestQuiescenceScaffoldingReset covers the conservative invalidation on
// out-of-protocol edits: SetRound and SetState drop every cached verdict,
// so an engine mutated mid-run by test scaffolding still matches a
// full-recompute engine mutated identically.
func TestQuiescenceScaffoldingReset(t *testing.T) {
	s := gen.SeededCatalog()[0].Build(120, 42)
	quick, oracle, maxRounds := qEngines(t, s, "fsync", "", 0)
	for r := 0; r < 10; r++ {
		if qStepBoth(t, quick, oracle) {
			t.Fatal("run ended before the scaffolding edit")
		}
	}
	// Jump both engines to a round phase their caches never saw.
	quick.SetRound(quick.Round() + 7)
	oracle.SetRound(oracle.Round() + 7)
	for r := 0; r < maxRounds; r++ {
		if qStepBoth(t, quick, oracle) {
			break
		}
	}
	if !quick.Gathered() || !oracle.Gathered() {
		t.Fatalf("round budget exhausted: quiescent gathered=%v, full-recompute gathered=%v",
			quick.Gathered(), oracle.Gathered())
	}
}

// FuzzQuiescenceDifferential fuzzes the workload/scheduler/fault axes
// jointly: whatever combination the bytes pick, the quiescent and
// full-recompute engines must agree round by round on the canonical state
// encoding for a bounded prefix of the run.
func FuzzQuiescenceDifferential(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(40), uint16(42))
	f.Add(uint8(3), uint8(2), uint8(60), uint16(7))
	f.Add(uint8(5), uint8(4), uint8(80), uint16(99))
	f.Add(uint8(1), uint8(1), uint8(50), uint16(1000))
	catalog := gen.SeededCatalog()
	specs := []string{"fsync", "ssync-rr:3", "ssync-rand:3", "ssync-lazy:5", "async:8"}
	faults := []string{"", "", "noise:p=0.05", "crash:p=0.004", "crash-at:r=9,k=4+noise:p=0.02"}
	f.Fuzz(func(t *testing.T, wi, si, rounds uint8, seed uint16) {
		w := catalog[int(wi)%len(catalog)]
		spec := specs[int(si)%len(specs)]
		fspec := faults[int(seed)%len(faults)]
		s := w.Build(48, int64(seed))
		quick, oracle, maxRounds := qEngines(t, s, spec, fspec, 0)
		budget := int(rounds)
		if budget > maxRounds {
			budget = maxRounds
		}
		for r := 0; r < budget; r++ {
			if qStepBoth(t, quick, oracle) {
				break
			}
		}
	})
}
