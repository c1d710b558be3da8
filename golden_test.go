package gridgather_test

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"gridgather"
	"gridgather/internal/exp"
)

// TestGoldenExperiments runs the recorded experiment suite and compares
// its output byte for byte with testdata/golden/exp_all.txt. Every number
// in it (rounds, merges, moves, runs, scaling exponents) follows from the
// engine's decisions, so a refactor that changes no decision leaves the
// file as it is. A change that does change a decision re-records it with
//
//	go run ./cmd/gatherbench -exp all > testdata/golden/exp_all.txt
//
// and says in CHANGES.md which decision changed and why.
func TestGoldenExperiments(t *testing.T) {
	const file = "testdata/golden/exp_all.txt"
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	exp.All(&got)
	diffGolden(t, file, got.String(), string(want))
}

// diffGolden fails t at the first line where got differs from want, the
// contents of the golden file.
func diffGolden(t *testing.T, file, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			t.Fatalf("output differs from %s at line %d:\n got: %s\nwant: %s", file, i+1, g[i], w[i])
		}
	}
	t.Fatalf("output has %d lines, %s %d", len(g), file, len(w))
}

// goldenSnapshotsFile holds one line per case of TestGoldenSnapshots.
const goldenSnapshotsFile = "testdata/golden/snapshots.txt"

// TestGoldenSnapshots pins whole-session state where TestGoldenExperiments
// pins only aggregate counters: run IDs, logical clocks, scheduler and
// fault cursors, crash marks and the canonical cell order all land in
// Snapshot's bytes. For every catalog family at n = 120 × the five
// scheduler families × {no faults, a crash plan, a noise plan} it records
// the SHA-256 of Snapshot() at round 50, at round 150 and at the end ("-"
// for a round the run never reached), plus the final Result. The paper's
// algorithm runs under FSYNC and the scheduler-robust greedy strategy
// under the relaxed schedulers, as the sweeps pair them. A change that
// alters a decision re-records the file with
//
//	rm testdata/golden/snapshots.txt && go test -run '^TestGoldenSnapshots$' .
//
// (a missing file is written and the test fails once, asking for the
// file to be checked in) and says in CHANGES.md which decision changed
// and why.
func TestGoldenSnapshots(t *testing.T) {
	var got strings.Builder
	for _, w := range gridgather.Workloads() {
		for _, spec := range []string{"fsync", "ssync-rr:3", "ssync-rand:3", "ssync-lazy:5", "async:8"} {
			for _, faults := range []string{"none", "crash-at:r=30,k=4@7", "noise:p=0.05@3"} {
				fmt.Fprintf(&got, "%s/%s/%s %s\n", w, spec, faults, goldenSnapshotCase(t, w, spec, faults))
			}
		}
	}
	want, err := os.ReadFile(goldenSnapshotsFile)
	if errors.Is(err, os.ErrNotExist) {
		if err := os.WriteFile(goldenSnapshotsFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %s; check it in", goldenSnapshotsFile)
	}
	if err != nil {
		t.Fatal(err)
	}
	diffGolden(t, goldenSnapshotsFile, got.String(), string(want))
}

// goldenSnapshotCase runs one case to the end and returns its digests and
// final Result as one line.
func goldenSnapshotCase(t *testing.T, workload, spec, faults string) string {
	t.Helper()
	cells, err := gridgather.Workload(workload, 120)
	if err != nil {
		t.Fatal(err)
	}
	alg := "paper"
	if spec != "fsync" {
		alg = "greedy"
	}
	// Connectivity checking on: a crash that splits the swarm latches
	// degraded mode instead of running into the stuck watchdog.
	sim, err := gridgather.New(cells, gridgather.WithScheduler(spec), gridgather.WithSchedulerSeed(42), gridgather.WithAlgorithm(alg),
		gridgather.WithFaults(faults), gridgather.WithConnectivityCheck(true))
	if err != nil {
		t.Fatal(err)
	}
	digest := func() string {
		b, err := sim.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x", sha256.Sum256(b))
	}
	var line strings.Builder
	for _, at := range []int{50, 150} {
		d := "-"
		if k := at - sim.Status().Round; k > 0 {
			if done, _ := sim.StepN(k); done == k {
				d = digest()
			}
		}
		fmt.Fprintf(&line, "r%d=%s ", at, d)
	}
	res := sim.Run(context.Background())
	fmt.Fprintf(&line, "end=%s gathered=%t rounds=%d merges=%d runs=%d moves=%d robots=%d->%d crashes=%d degraded=%t err=%v",
		digest(), res.Gathered, res.Rounds, res.Merges, res.RunsStarted, res.Moves,
		res.InitialRobots, res.FinalRobots, res.Crashes, res.Degraded, res.Err)
	return line.String()
}
