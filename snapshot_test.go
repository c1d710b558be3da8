package gridgather

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"gridgather/internal/codec"
	"gridgather/internal/fsync"
	"gridgather/internal/gen"
)

// sessionOptions builds the option set for one differential case: the
// paper's algorithm under FSYNC, the scheduler-robust greedy strategy
// under every relaxed scheduler (the paper's algorithm is FSYNC-only).
func sessionOptions(spec string, workers int) []Option {
	alg := "paper"
	if spec != "fsync" {
		alg = "greedy"
	}
	return []Option{
		WithScheduler(spec),
		WithSchedulerSeed(42),
		WithAlgorithm(alg),
		WithWorkers(workers),
	}
}

// compareSessions fails on the first state divergence between two sessions:
// cells, slots, run states (including IDs), logical clocks, counters and
// the gathered predicate — the full bit-identicality bar.
func compareSessions(t *testing.T, a, b *Simulation) {
	t.Helper()
	ea, eb := a.eng, b.eng
	ac, bc := ea.World().Cells(), eb.World().Cells()
	if len(ac) != len(bc) {
		t.Fatalf("round %d: population %d vs %d", ea.Round(), len(ac), len(bc))
	}
	as, bs := ea.World().Slots(), eb.World().Slots()
	for i := range ac {
		if ac[i] != bc[i] || as[i] != bs[i] {
			t.Fatalf("round %d: cell/slot %d: %v/%d vs %v/%d",
				ea.Round(), i, ac[i], as[i], bc[i], bs[i])
		}
		sa, sb := ea.StateAt(ac[i]), eb.StateAt(bc[i])
		if len(sa.Runs) != len(sb.Runs) {
			t.Fatalf("round %d: run count at %v: %d vs %d",
				ea.Round(), ac[i], len(sa.Runs), len(sb.Runs))
		}
		for j := range sa.Runs {
			if sa.Runs[j] != sb.Runs[j] {
				t.Fatalf("round %d: run at %v: %+v vs %+v",
					ea.Round(), ac[i], sa.Runs[j], sb.Runs[j])
			}
		}
		if la, lb := ea.LocalRound(ac[i]), eb.LocalRound(bc[i]); la != lb {
			t.Fatalf("round %d: clock at %v: %d vs %d", ea.Round(), ac[i], la, lb)
		}
	}
	ma, mb := a.Metrics(), b.Metrics()
	// The quiescence counters describe the execution strategy, not the
	// simulation: a restored engine starts with a cold verdict cache, so
	// they legitimately differ across a checkpoint (see the Metrics doc).
	// The quiescence differential suite separately proves the strategy
	// never changes simulation state.
	ma.QuiesceComputed, ma.QuiesceSkipped, ma.QuiescentRatio = 0, 0, 0
	mb.QuiesceComputed, mb.QuiesceSkipped, mb.QuiescentRatio = 0, 0, 0
	if ma != mb {
		t.Fatalf("round %d: metrics diverged: %+v vs %+v", ea.Round(), ma, mb)
	}
	if ea.Gathered() != eb.Gathered() {
		t.Fatalf("round %d: gathered %v vs %v", ea.Round(), ea.Gathered(), eb.Gathered())
	}
}

// TestSnapshotRestoreDifferential is the acceptance proof for the
// checkpoint codec: for every seeded-catalog workload × scheduler family,
// a session checkpointed at a random mid-run round and restored continues
// bit-identically to the uninterrupted session, round by round to the
// final Result. The workers=a->b subtests pass the deprecated WithWorkers,
// which does nothing; they stay until ROADMAP item 13 deletes it.
func TestSnapshotRestoreDifferential(t *testing.T) {
	const n = 48
	specs := []string{"fsync", "ssync-rr:3", "ssync-rand:3", "ssync-lazy:5", "async:8"}
	workerCounts := []int{1, 4, 8}
	rng := rand.New(rand.NewSource(2026))
	for _, w := range gen.SeededCatalog() {
		for _, spec := range specs {
			for wi, workers := range workerCounts {
				// Restore into a rotated deprecated worker count.
				restoreWorkers := workerCounts[(wi+1)%len(workerCounts)]
				t.Run(fmt.Sprintf("%s/%s/workers=%d->%d", w.Name, spec, workers, restoreWorkers), func(t *testing.T) {
					cells := fromSwarm(w.Build(n, 42))

					// Probe: the uninterrupted run, for the final Result
					// and the round count the cut is drawn from.
					probe := mustNew(t, cells, sessionOptions(spec, workers)...)
					want := probe.Run(context.Background())
					if want.Err != nil || !want.Gathered {
						t.Fatalf("uninterrupted run failed: %+v", want)
					}
					cut := 1
					if want.Rounds > 1 {
						cut += rng.Intn(want.Rounds - 1)
					}

					// Checkpoint a second session at the cut round and
					// restore it; the donor session keeps stepping as the
					// uninterrupted lockstep partner.
					donor := mustNew(t, cells, sessionOptions(spec, workers)...)
					if got, err := donor.StepN(cut); err != nil || got != cut {
						t.Fatalf("StepN(%d) = %d, %v", cut, got, err)
					}
					snap, err := donor.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					if again, _ := donor.Snapshot(); !bytes.Equal(snap, again) {
						t.Fatal("snapshot bytes not deterministic")
					}
					restored, err := Restore(snap, WithWorkers(restoreWorkers))
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
					}
					if got := restored.Result(); got != want {
						t.Errorf("restored result %+v != uninterrupted %+v", got, want)
					}
					if got := donor.Result(); got != want {
						t.Errorf("donor result %+v != uninterrupted %+v (snapshot perturbed the session)", got, want)
					}
				})
			}
		}
	}
}

// A restored session can itself be checkpointed and restored again; chains
// of checkpoints stay bit-identical.
func TestSnapshotChain(t *testing.T) {
	cells := mustWorkload(t, "hollow", 80)
	want := mustRun(t, cells)
	sim := mustNew(t, cells)
	for i := 0; i < 4; i++ {
		if _, err := sim.StepN(3); err != nil {
			t.Fatal(err)
		}
		snap, err := sim.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if sim, err = Restore(snap); err != nil {
			t.Fatalf("hop %d: %v", i, err)
		}
	}
	if res := sim.Run(context.Background()); res != want {
		t.Errorf("chained result %+v != %+v", res, want)
	}
}

func TestRestoreRejectsBadSnapshots(t *testing.T) {
	sim := mustNew(t, mustWorkload(t, "hollow", 60), sessionOptions("async:8", 1)...)
	if _, err := sim.StepN(5); err != nil {
		t.Fatal(err)
	}
	snap, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := Restore(nil); !errors.Is(err, ErrSnapshotTruncated) {
		t.Errorf("nil snapshot: %v", err)
	}
	if _, err := Restore([]byte("not a snapshot")); !errors.Is(err, ErrSnapshotInvalid) {
		t.Errorf("bad magic: %v", err)
	}
	for _, cut := range []int{4, 5, len(snap) / 2, len(snap) - 1} {
		if _, err := Restore(snap[:cut]); err == nil {
			t.Errorf("cut at %d: restore accepted a truncated snapshot", cut)
		} else if !errors.Is(err, ErrSnapshotTruncated) && !errors.Is(err, ErrSnapshotInvalid) {
			t.Errorf("cut at %d: untyped error %v", cut, err)
		}
	}

	// Version mismatch: bump the version varint after the 4-byte magic.
	bad := append([]byte(nil), snap...)
	bad[4] = snapshotVersion + 1
	if _, err := Restore(bad); !errors.Is(err, ErrSnapshotVersion) {
		t.Errorf("version bump: %v", err)
	}

	// Trailing garbage is corruption, not slack.
	if _, err := Restore(append(append([]byte(nil), snap...), 0xAB)); !errors.Is(err, ErrSnapshotInvalid) {
		t.Errorf("trailing bytes: %v", err)
	}

	// Structural options cannot reshape a checkpointed simulation.
	for _, opt := range []Option{
		WithScheduler("fsync"), WithAlgorithm("paper"),
		WithRadius(11), WithL(13), WithSchedulerSeed(7),
	} {
		if _, err := Restore(snap, opt); err == nil {
			t.Error("Restore accepted a structural option")
		}
	}
	// Execution options are fine.
	if _, err := Restore(snap, WithConnectivityCheck(true),
		WithStrictLocality(true), WithMaxRounds(50), WithNoMergeLimit(-1)); err != nil {
		t.Errorf("execution options rejected: %v", err)
	}
	// …but validated like New: a negative round limit is not "unlimited".
	if _, err := Restore(snap, WithMaxRounds(-1)); err != ErrNegativeMaxRounds {
		t.Errorf("negative MaxRounds: %v, want ErrNegativeMaxRounds", err)
	}
}

// An invariant-violation abort survives the snapshot: the restored session
// is Done with the same sticky error and refuses to re-execute rounds the
// original refused to run.
func TestRestoreCarriesInvariantAbort(t *testing.T) {
	// The paper's algorithm under a relaxed scheduler disconnects the
	// hollow ring (its merges are FSYNC-only) — the canonical invariant
	// violation.
	cells := mustWorkload(t, "hollow", 60)
	sim := mustNew(t, cells,
		WithScheduler("ssync-rr:3"), WithAlgorithm("paper"), WithConnectivityCheck(true))
	want := sim.Run(context.Background())
	var disc fsync.ErrDisconnected
	if !errors.As(want.Err, &disc) {
		t.Fatalf("expected a disconnection abort, got %+v", want)
	}
	snap, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if st := restored.Status(); !st.Done || st.Err == nil {
		t.Fatalf("restored aborted session reports %+v", st)
	}
	if err := restored.Step(); !errors.As(err, &disc) {
		t.Errorf("Step on restored aborted session = %v, want the sticky disconnection", err)
	}
	if got := restored.Result(); got != want {
		t.Errorf("restored result %+v != original %+v", got, want)
	}
}

// Budget overrides on Restore replace the checkpointed limits: an
// exhausted run can be granted more budget and complete.
func TestRestoreBudgetOverride(t *testing.T) {
	cells := mustWorkload(t, "hollow", 120)
	want := mustRun(t, cells)
	sim := mustNew(t, cells, WithMaxRounds(3))
	res := sim.Run(context.Background())
	if res.Err == nil {
		t.Fatal("expected a round-limit abort")
	}
	snap, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Restored without overrides the tiny budget persists…
	again, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if res := again.Run(context.Background()); res.Err == nil {
		t.Fatal("restored session inherited no budget limit")
	}
	// …and with an override the run completes like the uninterrupted one.
	granted, err := Restore(snap, WithMaxRounds(want.Rounds+10))
	if err != nil {
		t.Fatal(err)
	}
	res = granted.Run(context.Background())
	if res.Err != nil || !res.Gathered || res.Rounds != want.Rounds {
		t.Errorf("granted run %+v, want rounds=%d", res, want.Rounds)
	}
}

// executionHeader is the execution part of a snapshot header: the
// resolved budget and the two safety flags.
type executionHeader struct {
	maxRounds, noMergeLimit int
	checkConn, strict       bool
}

// readExecutionHeader parses a snapshot header far enough to return its
// execution settings, independently of decodeHeader.
func readExecutionHeader(t *testing.T, snap []byte) executionHeader {
	t.Helper()
	r := codec.NewReader(snap[len(snapshotMagic):])
	r.Uvarint() // version
	r.Int()     // radius
	r.Int()     // L
	r.Text()    // scheduler
	r.Varint()  // scheduler seed
	r.Text()    // algorithm
	r.Text()    // faults
	h := executionHeader{maxRounds: r.Int(), noMergeLimit: r.Int(), checkConn: r.Bool(), strict: r.Bool()}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return h
}

// Execution options passed to Restore replace the checkpointed values;
// options left out keep them, and a zero budget option keeps the
// checkpointed limit rather than re-deriving the canonical one.
func TestRestoreExecutionOverrides(t *testing.T) {
	cells := mustWorkload(t, "blob", 80)
	sim := mustNew(t, cells, WithConnectivityCheck(true), WithStrictLocality(true),
		WithNoMergeLimit(321), WithMaxRounds(4321))
	if _, err := sim.StepN(25); err != nil {
		t.Fatal(err)
	}
	snap, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ckpt := executionHeader{maxRounds: 4321, noMergeLimit: 321, checkConn: true, strict: true}
	if got := readExecutionHeader(t, snap); got != ckpt {
		t.Fatalf("checkpoint header %+v, want %+v", got, ckpt)
	}
	cases := []struct {
		name string
		opts []Option
		want executionHeader
	}{
		{"none", nil, ckpt},
		{"conn off", []Option{WithConnectivityCheck(false)},
			executionHeader{maxRounds: 4321, noMergeLimit: 321, strict: true}},
		{"strict off", []Option{WithStrictLocality(false)},
			executionHeader{maxRounds: 4321, noMergeLimit: 321, checkConn: true}},
		{"both off", []Option{WithConnectivityCheck(false), WithStrictLocality(false)},
			executionHeader{maxRounds: 4321, noMergeLimit: 321}},
		{"watchdog off", []Option{WithNoMergeLimit(-1)},
			executionHeader{maxRounds: 4321, checkConn: true, strict: true}},
		{"zero budget", []Option{WithMaxRounds(0), WithNoMergeLimit(0)}, ckpt},
		{"new budget", []Option{WithMaxRounds(9000), WithNoMergeLimit(77)},
			executionHeader{maxRounds: 9000, noMergeLimit: 77, checkConn: true, strict: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := Restore(snap, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			again, err := r.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if got := readExecutionHeader(t, again); got != tc.want {
				t.Fatalf("restored header %+v, want %+v", got, tc.want)
			}
			if tc.want == ckpt && !bytes.Equal(again, snap) {
				t.Fatal("restore without changed settings re-snapshots to different bytes")
			}
			if _, err := r.StepN(30); err != nil {
				t.Fatal(err)
			}
			// Strict locality disables the quiescence fast path, so the
			// counters show which setting the engine actually runs with.
			if computed := r.Metrics().QuiesceComputed; (computed == 0) != tc.want.strict {
				t.Errorf("strict=%v but QuiesceComputed=%d", tc.want.strict, computed)
			}
		})
	}
}
