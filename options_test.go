package gridgather

import (
	"testing"

	"gridgather/internal/baseline/asyncseq"
	"gridgather/internal/core"
	"gridgather/internal/fsync"
	"gridgather/internal/gen"
)

func TestResolveDefaults(t *testing.T) {
	s, err := (&settings{}).resolve(100)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.alg.(*core.Gatherer); !ok {
		t.Errorf("default algorithm = %T, want *core.Gatherer", s.alg)
	}
	if s.scheduler != nil {
		t.Error("FSYNC must resolve to a nil engine scheduler (fast path)")
	}
	if s.faults != nil {
		t.Error("no fault spec must resolve to a nil plan (fast path)")
	}
	if want := fsync.DefaultBudget(100); s.budget != want {
		t.Errorf("budget = %+v, want %+v", s.budget, want)
	}
}

func TestResolveRelaxed(t *testing.T) {
	s, err := (&settings{algorithm: "greedy", scheduler: "ssync-rr:3"}).resolve(100)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.alg.(asyncseq.Algorithm); !ok {
		t.Errorf("algorithm = %T, want asyncseq.Algorithm", s.alg)
	}
	if s.scheduler == nil {
		t.Fatal("relaxed scheduler must reach the engine")
	}
	if want := fsync.DefaultBudget(100).Scale(3); s.budget != want {
		t.Errorf("budget = %+v, want %+v (fairness-scaled)", s.budget, want)
	}
}

// Seed 0 normalizes to 1 inside resolve — the one place the rule lives —
// so New and Restore agree.
func TestResolveSeedZeroMeansOne(t *testing.T) {
	cells := gen.Hollow(8, 8).Cells()
	slots := make([]int32, len(cells))
	for i := range slots {
		slots[i] = int32(i)
	}
	for _, spec := range []string{"ssync-rand:3", "ssync-lazy:5"} {
		zero, err := (&settings{algorithm: "greedy", scheduler: spec}).resolve(len(cells))
		if err != nil {
			t.Fatal(err)
		}
		one, err := (&settings{algorithm: "greedy", scheduler: spec, schedulerSeed: 1}).resolve(len(cells))
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 20; round++ {
			mz := make([]bool, len(cells))
			mo := make([]bool, len(cells))
			zero.scheduler.Activate(round, cells, slots, mz)
			one.scheduler.Activate(round, cells, slots, mo)
			for i := range mz {
				if mz[i] != mo[i] {
					t.Fatalf("%s round %d: seed 0 diverged from seed 1 at %d", spec, round, i)
				}
			}
		}
	}
}

func TestResolveErrors(t *testing.T) {
	for _, c := range []settings{
		{algorithm: "magic"},
		{scheduler: "warp"},
		{faults: "crash:p=7"},
		{radius: 3, l: 2},
	} {
		if _, err := c.resolve(10); err == nil {
			t.Errorf("%+v resolved", c)
		}
	}
	for _, name := range Algorithms() {
		if _, err := (&settings{algorithm: name}).resolve(10); err != nil {
			t.Errorf("algorithm %q: %v", name, err)
		}
	}
}
