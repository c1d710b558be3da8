package fsync_test

import (
	"bytes"
	"testing"

	"gridgather/internal/baseline/asyncseq"
	"gridgather/internal/core"
	"gridgather/internal/fsync"
	"gridgather/internal/gen"
	"gridgather/internal/sched"
)

// engineFor builds an engine over a hollow ring under the given spec (the
// paper's algorithm for fsync, greedy otherwise — see
// TestPaperAlgorithmRequiresFSYNC) with the canonical budget.
func engineFor(t *testing.T, spec string) *fsync.Engine {
	t.Helper()
	return fsync.New(gen.Hollow(11, 11), algOf(spec), configOf(t, spec))
}

// TestEngineSnapshotResumes checkpoints an engine mid-run, restores it into
// a fresh engine (same spec, fresh scheduler instance) and steps both to
// completion in lockstep, comparing full state each round.
func TestEngineSnapshotResumes(t *testing.T) {
	for _, spec := range []string{"fsync", "ssync-rr:3", "ssync-rand:3", "ssync-lazy:5", "async:8"} {
		t.Run(spec, func(t *testing.T) {
			orig := engineFor(t, spec)
			for r := 0; r < 7 && !orig.Gathered(); r++ {
				if err := orig.Step(); err != nil {
					t.Fatal(err)
				}
			}
			state := orig.AppendState(nil)

			// The snapshot is deterministic and taking it does not perturb
			// the engine.
			if again := orig.AppendState(nil); !bytes.Equal(state, again) {
				t.Fatal("snapshot bytes not deterministic")
			}

			// Restore into a fresh scheduler instance: it may not influence
			// the resumed rounds.
			restored, rest, err := fsync.NewRestored(algOf(spec), configOf(t, spec), state)
			if err != nil {
				t.Fatal(err)
			}
			if len(rest) != 0 {
				t.Fatalf("%d trailing bytes after restore", len(rest))
			}
			compareEngines(t, orig, restored)
			for r := 0; r < 100000 && !orig.Gathered(); r++ {
				if err := orig.Step(); err != nil {
					t.Fatalf("orig step: %v", err)
				}
				if err := restored.Step(); err != nil {
					t.Fatalf("restored step: %v", err)
				}
				compareEngines(t, orig, restored)
			}
			if !restored.Gathered() {
				t.Fatal("restored engine did not gather")
			}
		})
	}
}

// algOf/configOf are the construction inputs of engineFor, which
// NewRestored needs again.
func algOf(spec string) fsync.Algorithm {
	if spec == "fsync" {
		return core.Default()
	}
	return asyncseq.Algorithm{}
}

func configOf(t *testing.T, spec string) fsync.Config {
	t.Helper()
	var sch sched.Scheduler
	if spec != "fsync" {
		var err error
		if sch, err = sched.Parse(spec, 42); err != nil {
			t.Fatal(err)
		}
	}
	s := gen.Hollow(11, 11)
	budget := fsync.DefaultBudget(s.Len())
	if sch != nil {
		budget = budget.Scale(sch.Fairness(s.Len()))
	}
	return fsync.Config{
		MaxRounds:    budget.MaxRounds,
		NoMergeLimit: budget.NoMergeLimit,
		StrictViews:  true,
		Scheduler:    sch,
	}
}

func TestNewRestoredRejectsGarbage(t *testing.T) {
	if _, _, err := fsync.NewRestored(core.Default(), fsync.Config{}, nil); err == nil {
		t.Error("expected error for empty snapshot")
	}
	e := engineFor(t, "fsync")
	state := e.AppendState(nil)
	for _, cut := range []int{1, len(state) / 2, len(state) - 1} {
		if _, _, err := fsync.NewRestored(core.Default(), fsync.Config{}, state[:cut]); err == nil {
			t.Errorf("cut at %d: expected error", cut)
		}
	}
	// A scheduler-run snapshot cannot restore into a schedulerless config
	// (clock planes mismatch) and vice versa.
	es := engineFor(t, "async:8")
	if _, _, err := fsync.NewRestored(core.Default(), fsync.Config{}, es.AppendState(nil)); err == nil {
		t.Error("expected clock mismatch error")
	}
	if _, _, err := fsync.NewRestored(core.Default(), configOf(t, "async:8"), state); err == nil {
		t.Error("expected clock mismatch error (other direction)")
	}
}
