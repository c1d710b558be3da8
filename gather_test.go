package gridgather

import (
	"slices"
	"strings"
	"testing"

	"gridgather/internal/gen"
)

func TestGatherPublicAPI(t *testing.T) {
	cells, err := Workload("hollow", 60)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, cells, WithConnectivityCheck(true), WithStrictLocality(true))
	if res.Err != nil || !res.Gathered {
		t.Fatalf("result = %+v", res)
	}
	if res.InitialRobots != len(cells) || res.FinalRobots > 4 {
		t.Errorf("population accounting: %+v", res)
	}
}

func TestGatherRejectsDisconnected(t *testing.T) {
	if _, err := New([]Point{{0, 0}, {5, 5}}); err != ErrNotConnected {
		t.Errorf("err = %v", err)
	}
}

func TestGatherRejectsEmpty(t *testing.T) {
	if _, err := New(nil); err != ErrEmpty {
		t.Errorf("err = %v", err)
	}
}

func TestGatherDoesNotMutateInput(t *testing.T) {
	cells := []Point{{0, 0}, {1, 0}, {2, 0}, {3, 0}}
	mustRun(t, cells)
	want := []Point{{0, 0}, {1, 0}, {2, 0}, {3, 0}}
	for i := range cells {
		if cells[i] != want[i] {
			t.Fatal("input mutated")
		}
	}
}

func TestWorkloadsCatalog(t *testing.T) {
	names := Workloads()
	for _, w := range gen.SeededCatalog() {
		if !slices.Contains(names, w.Name) {
			t.Errorf("workload family %s missing from %v", w.Name, names)
		}
	}
	for _, name := range names {
		cells, err := Workload(name, 40)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !Connected(cells) {
			t.Errorf("%s: disconnected workload", name)
		}
	}
	if _, err := Workload("nope", 10); err == nil {
		t.Error("expected error for unknown workload")
	}
	if _, err := Workload("line", 0); err == nil {
		t.Error("expected error for n=0")
	}
}

func TestGatherSchedulerOption(t *testing.T) {
	cells, _ := Workload("hollow", 40)
	// The scheduler-robust greedy algorithm gathers under a relaxed
	// schedule with connectivity checked every round.
	res := mustRun(t, cells, WithScheduler("ssync"), WithAlgorithm("greedy"), WithConnectivityCheck(true))
	if res.Err != nil || !res.Gathered {
		t.Fatalf("greedy under ssync failed: %+v", res)
	}
	// An FSYNC run with an explicit scheduler string matches the default.
	ref := mustRun(t, cells)
	expl := mustRun(t, cells, WithScheduler("fsync"))
	if ref != expl {
		t.Errorf("explicit fsync diverged from default: %+v vs %+v", ref, expl)
	}
}

func TestGatherOptionValidation(t *testing.T) {
	cells, _ := Workload("line", 10)
	if _, err := New(cells, WithMaxRounds(-1)); err != ErrNegativeMaxRounds {
		t.Errorf("MaxRounds=-1: err = %v", err)
	}
	if _, err := New(cells, WithScheduler("warp")); err == nil {
		t.Error("expected error for unknown scheduler")
	}
	if _, err := New(cells, WithAlgorithm("magic")); err == nil {
		t.Error("expected error for unknown algorithm")
	}
}

// Every malformed option must fail in the session constructor, before a
// session exists.
func TestNewAndGatherErrorPaths(t *testing.T) {
	cells, _ := Workload("line", 10)
	cases := []struct {
		name string
		opt  Option
		want error // nil = any non-nil error accepted
	}{
		{"unknown scheduler", WithScheduler("warp"), nil},
		{"malformed ssync param", WithScheduler("ssync:0"), nil},
		{"parameterized fsync", WithScheduler("fsync:2"), nil},
		{"non-numeric param", WithScheduler("async:x"), nil},
		{"unknown algorithm", WithAlgorithm("magic"), nil},
		{"negative MaxRounds", WithMaxRounds(-1), ErrNegativeMaxRounds},
		{"invalid radius", WithRadius(2), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim, err := New(cells, tc.opt)
			if err == nil {
				t.Fatal("New accepted the option")
			}
			if tc.want != nil && err != tc.want {
				t.Fatalf("New err = %v, want %v", err, tc.want)
			}
			if sim != nil {
				t.Error("New returned a session alongside an error")
			}
		})
	}
}

// SchedulerSeed 0 means 1: the two configurations are one simulation, for
// every randomized scheduler.
func TestSchedulerSeedZeroMeansOne(t *testing.T) {
	cells, _ := Workload("hollow", 40)
	for _, spec := range []string{"ssync-rand:3", "ssync-lazy:5"} {
		zero := mustRun(t, cells, WithScheduler(spec), WithAlgorithm("greedy"))
		one := mustRun(t, cells, WithScheduler(spec), WithSchedulerSeed(1), WithAlgorithm("greedy"))
		if zero.Err != nil || one.Err != nil {
			t.Fatalf("%s: %v / %v", spec, zero.Err, one.Err)
		}
		if zero != one {
			t.Errorf("%s: seed 0 diverged from seed 1: %+v vs %+v", spec, zero, one)
		}
		two := mustRun(t, cells, WithScheduler(spec), WithSchedulerSeed(2), WithAlgorithm("greedy"))
		if two == one {
			t.Logf("%s: seed 2 happened to match seed 1 (possible, but suspicious)", spec)
		}
	}
}

func TestSchedulersAndAlgorithmsListed(t *testing.T) {
	if specs := Schedulers(); len(specs) < 4 {
		t.Errorf("schedulers = %v", specs)
	}
	if algs := Algorithms(); len(algs) != 2 {
		t.Errorf("algorithms = %v", algs)
	}
}

func TestCustomRadiusAndL(t *testing.T) {
	cells, _ := Workload("hollow", 80)
	res := mustRun(t, cells, WithRadius(11), WithL(13), WithConnectivityCheck(true))
	if res.Err != nil || !res.Gathered {
		t.Fatalf("radius-11/L-13 run failed: %+v", res)
	}
}

func TestRenderHelper(t *testing.T) {
	art := Render([]Point{{0, 0}, {1, 0}, {1, 1}})
	if !strings.Contains(art, "#") {
		t.Errorf("render = %q", art)
	}
	lines := strings.Split(strings.TrimSpace(art), "\n")
	if len(lines) != 2 {
		t.Errorf("render lines = %d", len(lines))
	}
}

func TestConnectedHelper(t *testing.T) {
	if !Connected([]Point{{0, 0}, {0, 1}}) {
		t.Error("adjacent pair should be connected")
	}
	if Connected([]Point{{0, 0}, {1, 1}}) {
		t.Error("diagonal pair must not be connected")
	}
	if Connected(nil) {
		t.Error("empty must not be connected")
	}
}
