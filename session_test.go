package gridgather

import (
	"context"
	"errors"
	"testing"

	"gridgather/internal/fsync"
)

func mustWorkload(t testing.TB, name string, n int) []Point {
	t.Helper()
	cells, err := Workload(name, n)
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

func mustNew(t testing.TB, cells []Point, opts ...Option) *Simulation {
	t.Helper()
	sim, err := New(cells, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// mustRun creates a session and runs it to completion.
func mustRun(t testing.TB, cells []Point, opts ...Option) Result {
	t.Helper()
	return mustNew(t, cells, opts...).Run(context.Background())
}

// A session stepped round by round reproduces an uninterrupted Run exactly.
func TestSessionStepMatchesGather(t *testing.T) {
	cells := mustWorkload(t, "hollow", 60)
	ref := mustRun(t, cells, WithConnectivityCheck(true))
	if ref.Err != nil {
		t.Fatal(ref.Err)
	}
	sim := mustNew(t, cells, WithConnectivityCheck(true))
	steps := 0
	for {
		err := sim.Step()
		if err == ErrDone {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		steps++
		if st := sim.Status(); st.Gathered {
			break
		}
	}
	if res := sim.Result(); res != ref {
		t.Errorf("stepped result %+v != Run result %+v", res, ref)
	}
	if steps != ref.Rounds {
		t.Errorf("stepped %d rounds, Run took %d", steps, ref.Rounds)
	}
	// Step on the finished session reports ErrDone and does not advance.
	if err := sim.Step(); err != ErrDone {
		t.Errorf("Step after gathering = %v, want ErrDone", err)
	}
	if sim.Status().Round != ref.Rounds {
		t.Error("Step after gathering advanced the round counter")
	}
}

func TestSessionStepN(t *testing.T) {
	cells := mustWorkload(t, "line", 40)
	ref := mustRun(t, cells)
	sim := mustNew(t, cells)
	n, err := sim.StepN(5)
	if err != nil || n != 5 {
		t.Fatalf("StepN(5) = %d, %v", n, err)
	}
	if st := sim.Status(); st.Round != 5 || st.Done {
		t.Fatalf("status after StepN(5): %+v", st)
	}
	// Stepping far past the end stops exactly at the gathering round.
	n, err = sim.StepN(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if got := 5 + n; got != ref.Rounds {
		t.Errorf("total rounds %d, want %d", got, ref.Rounds)
	}
	if n, err = sim.StepN(3); n != 0 || err != ErrDone {
		t.Errorf("StepN on finished session = %d, %v", n, err)
	}
}

func TestSessionStatusAndMetrics(t *testing.T) {
	cells := mustWorkload(t, "hollow", 60)
	sim := mustNew(t, cells)
	if st := sim.Status(); st.Round != 0 || st.Done || st.Robots != len(cells) {
		t.Fatalf("fresh status: %+v", st)
	}
	res := sim.Run(context.Background())
	if res.Err != nil || !res.Gathered {
		t.Fatalf("run: %+v", res)
	}
	st, m := sim.Status(), sim.Metrics()
	if !st.Done || !st.Gathered || st.Err != nil {
		t.Errorf("final status: %+v", st)
	}
	if m.Rounds != res.Rounds || m.Merges != res.Merges || m.Moves != res.Moves ||
		m.RunsStarted != res.RunsStarted || m.InitialRobots != res.InitialRobots ||
		m.Robots != res.FinalRobots {
		t.Errorf("metrics %+v inconsistent with result %+v", m, res)
	}
}

// Run honors cancellation mid-round-loop without corrupting the session: a
// cancelled session steps onward and finishes exactly like an
// uninterrupted run.
func TestRunHonorsCancellation(t *testing.T) {
	cells := mustWorkload(t, "hollow", 80)
	ref := mustRun(t, cells)
	if ref.Err != nil || ref.Rounds < 6 {
		t.Fatalf("reference: %+v", ref)
	}

	sim := mustNew(t, cells)
	ctx, cancel := context.WithCancel(context.Background())
	const cutAt = 5
	sim.Subscribe(RoundEvents, func(ev Event) {
		if ev.Round == cutAt {
			cancel() // cancel from inside the round loop
		}
	})
	res := sim.Run(ctx)
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("cancelled run err = %v", res.Err)
	}
	if res.Rounds != cutAt {
		t.Fatalf("cancelled at round %d, want %d", res.Rounds, cutAt)
	}
	if st := sim.Status(); st.Done || st.Err != nil {
		t.Fatalf("cancellation marked the session done: %+v", st)
	}

	// The session steps onward after cancellation…
	if err := sim.Step(); err != nil {
		t.Fatalf("Step after cancel: %v", err)
	}
	// …and a fresh Run completes with the uninterrupted result.
	res = sim.Run(context.Background())
	if res != ref {
		t.Errorf("resumed run %+v != uninterrupted %+v", res, ref)
	}
}

// Abort errors are sticky and delivered to abort subscribers.
func TestSessionAbortSticky(t *testing.T) {
	cells := mustWorkload(t, "hollow", 120)
	var aborts []error
	sim := mustNew(t, cells, WithMaxRounds(3))
	sim.Subscribe(AbortEvents, func(ev Event) { aborts = append(aborts, ev.Err) })
	res := sim.Run(context.Background())
	var limit fsync.ErrRoundLimit
	if !errors.As(res.Err, &limit) {
		t.Fatalf("err = %v, want round limit", res.Err)
	}
	if len(aborts) != 1 || aborts[0] == nil {
		t.Fatalf("abort events: %v", aborts)
	}
	if err := sim.Step(); !errors.As(err, &limit) {
		t.Errorf("Step after abort = %v, want the sticky round-limit error", err)
	}
	if st := sim.Status(); !st.Done || st.Err == nil {
		t.Errorf("aborted status: %+v", st)
	}
}

// The typed event stream carries the round, merge, run-start and gathered
// kinds with consistent payloads.
func TestSessionEvents(t *testing.T) {
	cells := mustWorkload(t, "hollow", 60)
	var rounds, merges, runStarts, gathered int
	var lastRobots int
	mergeSum := 0
	sim := mustNew(t, cells)
	sim.Subscribe(RoundEvents, func(ev Event) {
		rounds++
		lastRobots = len(ev.Robots)
		if ev.Kind != EventRound {
			t.Errorf("round event kind = %v", ev.Kind)
		}
	})
	sim.Subscribe(MergeEvents|RunStartEvents|GatheredEvents, func(ev Event) {
		switch ev.Kind {
		case EventMerge:
			merges++
			mergeSum += ev.RoundMerges
		case EventRunStart:
			runStarts++
		case EventGathered:
			gathered++
			if !Connected(ev.Robots) {
				t.Error("gathered event with disconnected payload")
			}
		}
	})
	res := sim.Run(context.Background())
	if res.Err != nil || !res.Gathered {
		t.Fatalf("run: %+v", res)
	}
	if rounds != res.Rounds {
		t.Errorf("round events %d, rounds %d", rounds, res.Rounds)
	}
	if gathered != 1 {
		t.Errorf("gathered events = %d", gathered)
	}
	if mergeSum != res.Merges {
		t.Errorf("merge events summed to %d, result has %d", mergeSum, res.Merges)
	}
	if runStarts == 0 && res.RunsStarted > 0 {
		t.Error("no run-start events despite started runs")
	}
	if lastRobots != res.FinalRobots {
		t.Errorf("last round payload had %d robots, final %d", lastRobots, res.FinalRobots)
	}
	if merges == 0 {
		t.Error("no merge events on a gathering run")
	}
}

func TestStepNNonPositive(t *testing.T) {
	sim := mustNew(t, mustWorkload(t, "line", 10))
	for _, k := range []int{0, -3} {
		if n, err := sim.StepN(k); n != 0 || err != nil {
			t.Errorf("StepN(%d) = %d, %v; want 0, nil", k, n, err)
		}
	}
	if sim.Status().Round != 0 {
		t.Error("non-positive StepN advanced the session")
	}
}

// Cancelling a subscription from inside an event callback must not corrupt
// the in-flight delivery: every other subscriber still sees the event
// exactly once.
func TestSubscribeCancelDuringEmit(t *testing.T) {
	sim := mustNew(t, mustWorkload(t, "line", 20))
	var cancelB func()
	var b, c int
	sim.Subscribe(RoundEvents, func(Event) { cancelB() }) // A cancels B mid-emit
	cancelB = sim.Subscribe(RoundEvents, func(Event) { b++ })
	sim.Subscribe(RoundEvents, func(Event) { c++ })
	if err := sim.Step(); err != nil {
		t.Fatal(err)
	}
	if b != 0 {
		t.Errorf("cancelled subscriber still ran %d times", b)
	}
	if c != 1 {
		t.Errorf("later subscriber saw the event %d times, want exactly 1", c)
	}
}

// Subscribe's cancel function removes the subscription.
func TestSubscribeCancel(t *testing.T) {
	cells := mustWorkload(t, "line", 20)
	sim := mustNew(t, cells)
	var a, b int
	cancelA := sim.Subscribe(RoundEvents, func(Event) { a++ })
	sim.Subscribe(RoundEvents, func(Event) { b++ })
	if _, err := sim.StepN(2); err != nil {
		t.Fatal(err)
	}
	cancelA()
	cancelA() // idempotent
	if _, err := sim.StepN(2); err != nil {
		t.Fatal(err)
	}
	if a != 2 || b != 4 {
		t.Errorf("a = %d (want 2), b = %d (want 4)", a, b)
	}
}

// The observer path adds zero allocations on top of a bare Step: the event
// payload reuses session-owned scratch refilled from engine-owned state.
func TestObserverPathAllocationFree(t *testing.T) {
	measure := func(observe func(Event)) float64 {
		cells := mustWorkload(t, "hollow", 400)
		sim := mustNew(t, cells)
		if observe != nil {
			sim.Subscribe(AllEvents, observe)
		}
		// Warm the scratch buffers, then measure steady-state rounds.
		if _, err := sim.StepN(3); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if err := sim.Step(); err != nil {
				t.Fatal(err)
			}
		})
	}
	bare := measure(nil)
	seen := 0
	observed := measure(func(ev Event) { seen += len(ev.Robots) + len(ev.Runners) })
	if observed > bare {
		t.Errorf("observer path allocates: %.1f allocs/round with observer, %.1f without", observed, bare)
	}
	if seen == 0 {
		t.Fatal("observer never saw a payload")
	}
}
