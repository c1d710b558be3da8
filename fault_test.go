package gridgather

// Session-level fault-injection tests: WithFaults threading, the typed
// crash/degradation events, the Status/Metrics/Result observability
// surface, snapshot round-trips carrying mid-run fault state, and the
// corpus proof that greedy gathers the survivors under planted crash
// plans. The engine-level differential proofs live in internal/fsync.

import (
	"bytes"
	"context"
	"fmt"
	"testing"
)

func TestFaultSpecsListed(t *testing.T) {
	specs := FaultSpecs()
	if len(specs) == 0 {
		t.Fatal("FaultSpecs is empty")
	}
	for _, bad := range []string{"bogus:p=1", "crash:p=2", "crash-at:r=5"} {
		if _, err := New(mustWorkload(t, "blob", 30), WithFaults(bad)); err == nil {
			t.Errorf("New accepted fault spec %q", bad)
		}
	}
}

// A zero-probability fault plan must not perturb the simulation: the full
// Result — rounds, merges, moves, run starts — matches the fault-free run
// bit for bit, with the fault machinery (crash tracking, noise draws, the
// fault-aware gathered predicate) fully engaged.
func TestZeroProbabilityFaultsMatchCleanRun(t *testing.T) {
	for _, spec := range []string{"fsync", "ssync-rr:3"} {
		t.Run(spec, func(t *testing.T) {
			cells := mustWorkload(t, "blob", 60)
			clean := mustNew(t, cells, sessionOptions(spec, 4)...)
			want := clean.Run(context.Background())
			if want.Err != nil || !want.Gathered {
				t.Fatalf("clean run: %+v", want)
			}
			faulty := mustNew(t, cells, append(sessionOptions(spec, 4),
				WithFaults("crash:p=0+noise:p=0"))...)
			if got := faulty.Run(context.Background()); got != want {
				t.Errorf("zero-probability fault run %+v != clean run %+v", got, want)
			}
		})
	}
}

// A planted mass crash surfaces everywhere it should: typed crash events
// with per-round counts, live/crashed population splits in Status, the
// cumulative counter in Metrics, and the final tally in Result — while
// greedy still gathers the survivors.
func TestSessionCrashObservability(t *testing.T) {
	cells := mustWorkload(t, "blob", 48)
	var crashEvents, degradedEvents int
	crashSum := 0
	sim := mustNew(t, cells,
		WithAlgorithm("greedy"),
		WithConnectivityCheck(true),
		WithFaults("crash-at:r=5,k=6@3"))
	sim.Subscribe(CrashEvents|DegradedEvents, func(ev Event) {
		switch ev.Kind {
		case EventCrash:
			crashEvents++
			crashSum += ev.RoundCrashes
			if ev.Crashes != crashSum {
				t.Errorf("event crash counter %d != summed rounds %d", ev.Crashes, crashSum)
			}
		case EventDegraded:
			degradedEvents++
		}
	})
	res := sim.Run(context.Background())
	if res.Err != nil || !res.Gathered {
		t.Fatalf("run: %+v", res)
	}
	if res.Crashes != 6 {
		t.Errorf("Result.Crashes = %d, want 6", res.Crashes)
	}
	if crashEvents != 1 || crashSum != 6 {
		t.Errorf("crash events = %d (sum %d), want one event covering all 6", crashEvents, crashSum)
	}
	if res.Degraded && degradedEvents != 1 {
		t.Errorf("degraded run emitted %d degraded events", degradedEvents)
	}
	if !res.Degraded && degradedEvents != 0 {
		t.Errorf("non-degraded run emitted %d degraded events", degradedEvents)
	}
	st := sim.Status()
	if st.Alive+st.Crashed != st.Robots {
		t.Errorf("population split broken: alive %d + crashed %d != robots %d",
			st.Alive, st.Crashed, st.Robots)
	}
	if st.Reason != "gathered" {
		t.Errorf("Status.Reason = %q, want \"gathered\"", st.Reason)
	}
	if m := sim.Metrics(); m.Crashes != 6 {
		t.Errorf("Metrics.Crashes = %d, want 6", m.Crashes)
	}
}

// A fault-free session reports zeroed fault fields.
func TestCleanSessionFaultFieldsZero(t *testing.T) {
	sim := mustNew(t, mustWorkload(t, "hollow", 40))
	res := sim.Run(context.Background())
	st := sim.Status()
	if res.Crashes != 0 || res.Degraded || st.Crashed != 0 || st.Degraded ||
		st.Alive != st.Robots || sim.Metrics().Crashes != 0 {
		t.Errorf("fault fields leaked into a clean run: %+v / %+v", res, st)
	}
}

// Snapshots carry mid-run fault state: cut a session with live crash and
// noise probabilities mid-flight, restore, and both must stay bit-identical
// to the end. WithFaults is structural, so Restore rejects it.
func TestSnapshotRestoreWithFaults(t *testing.T) {
	const faults = "crash:p=0.004+noise:p=0.02@9"
	for _, spec := range []string{"fsync", "ssync-rand:3"} {
		t.Run(spec, func(t *testing.T) {
			cells := mustWorkload(t, "blob", 48)
			opts := append(sessionOptions(spec, 4), WithAlgorithm("greedy"),
				WithConnectivityCheck(true), WithFaults(faults))
			donor := mustNew(t, cells, opts...)
			if _, err := donor.StepN(20); err != nil {
				t.Fatal(err)
			}
			snap, err := donor.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if again, _ := donor.Snapshot(); !bytes.Equal(snap, again) {
				t.Fatal("snapshot bytes not deterministic")
			}
			if _, err := Restore(snap, WithFaults("off")); err == nil {
				t.Fatal("Restore accepted the structural WithFaults option")
			}
			restored, err := Restore(snap)
			if err != nil {
				t.Fatal(err)
			}
			compareSessions(t, donor, restored)
			for !donor.Status().Done {
				if err := donor.Step(); err != nil {
					t.Fatalf("donor step: %v", err)
				}
				if err := restored.Step(); err != nil {
					t.Fatalf("restored step: %v", err)
				}
				compareSessions(t, donor, restored)
				ds, rs := donor.Status(), restored.Status()
				if ds.Crashed != rs.Crashed || ds.Degraded != rs.Degraded ||
					ds.DegradedRound != rs.DegradedRound {
					t.Fatalf("fault state diverged after restore: %+v vs %+v", ds, rs)
				}
			}
			if dr, rr := donor.Result(), restored.Result(); dr != rr {
				t.Errorf("results diverged: %+v vs %+v", dr, rr)
			}
		})
	}
}

// The satellite corpus proof: greedy gathers the survivors under planted
// crash plans across workload families and scheduler regimes. Every spec
// is seed-pinned, so each case is a fixed, reproducible scenario.
func TestGreedyCorpusGathersSurvivors(t *testing.T) {
	workloads := []string{"blob", "tree", "clusters"}
	plans := []string{"crash-at:r=5,k=4@1", "crash:p=0.002@7"}
	for _, w := range workloads {
		for _, plan := range plans {
			for _, spec := range []string{"fsync", "ssync-rr:3"} {
				t.Run(fmt.Sprintf("%s/%s/%s", w, plan, spec), func(t *testing.T) {
					cells := mustWorkload(t, w, 40)
					// Connectivity checking on: graceful degradation (the
					// survivors' gathering condition after a fault splits
					// the swarm) piggybacks on the connectivity check.
					sim := mustNew(t, cells, append(sessionOptions(spec, 4),
						WithAlgorithm("greedy"), WithConnectivityCheck(true),
						WithFaults(plan))...)
					res := sim.Run(context.Background())
					if res.Err != nil || !res.Gathered {
						t.Fatalf("survivors not gathered: %+v (status %+v)", res, sim.Status())
					}
				})
			}
		}
	}
}
