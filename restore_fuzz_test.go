package gridgather

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"

	"gridgather/internal/codec"
	"gridgather/internal/gen"
	"gridgather/internal/world"
)

// forgeSnapshot returns sim's snapshot with the engine state replaced by
// fresh counters (round 0, run IDs from 1) and the given world section.
// The session must run under FSYNC without faults, so nothing follows the
// world.
func forgeSnapshot(t testing.TB, sim *Simulation, worldSection []byte) []byte {
	t.Helper()
	snap, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b := snap[:len(snap)-len(sim.eng.AppendState(nil))]
	for _, v := range []uint64{0, 0, 0, 0, 1, 0, 0} { // round, merges, moves, runs started, next run ID, last merge, round merges
		b = codec.AppendUvarint(b, v)
	}
	return append(b, worldSection...)
}

// hugeSlotWorld is a 7-byte world section: a slot space of 2^31-1, no
// clocks, no robots. Decoding it allocates per slot, so Restore must
// refuse it from the header alone.
var hugeSlotWorld = []byte{0xff, 0xff, 0xff, 0xff, 0x07, 0, 0}

// sharedSlotWorld holds two robots that both claim slot 0.
func sharedSlotWorld() []byte {
	b := codec.AppendUvarint(nil, 2)
	b = codec.AppendBool(b, false)
	b = codec.AppendUvarint(b, 2)
	for x := 0; x < 2; x++ {
		b = codec.AppendInt(b, x)
		b = codec.AppendInt(b, 0)
		b = codec.AppendUvarint(b, 0) // slot
		b = codec.AppendUvarint(b, 0) // runs
	}
	return b
}

func TestRestoreRejectsForgedSlotSpace(t *testing.T) {
	sim := mustNew(t, []Point{{0, 0}, {1, 0}, {2, 0}})
	snap := forgeSnapshot(t, sim, hugeSlotWorld)
	if n, err := world.SlotSpace(hugeSlotWorld); err != nil || n != math.MaxInt32 {
		t.Fatalf("SlotSpace = %d, %v", n, err)
	}
	if n, err := SnapshotInitialRobots(snap); err != nil || n != 3 {
		t.Fatalf("SnapshotInitialRobots = %d, %v; want the header's 3", n, err)
	}
	if _, err := SnapshotInitialRobots(snap[:6]); !errors.Is(err, ErrSnapshotTruncated) {
		t.Fatalf("SnapshotInitialRobots of a cut header: %v, want ErrSnapshotTruncated", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Restore(snap)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrSnapshotInvalid) {
		t.Fatalf("Restore of a world with 2^31-1 slots for 3 robots: %v, want ErrSnapshotInvalid", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
		t.Fatalf("rejecting the forged slot space allocated %d bytes", d)
	}
}

func TestRestoreRejectsSharedSlot(t *testing.T) {
	sim := mustNew(t, []Point{{0, 0}, {1, 0}})
	_, err := Restore(forgeSnapshot(t, sim, sharedSlotWorld()))
	if !errors.Is(err, ErrSnapshotInvalid) || !errors.Is(err, world.ErrDuplicateSlot) {
		t.Fatalf("Restore of two robots sharing a slot: %v, want ErrSnapshotInvalid wrapping ErrDuplicateSlot", err)
	}
}

// FuzzRestore feeds Restore mutations of structurally valid snapshots.
// The only acceptable outcomes are a typed ErrSnapshot* error, or a
// session that re-snapshots to the same bytes and steps a few rounds
// without panicking (a step may fail: a mutated world can be
// disconnected).
func FuzzRestore(f *testing.F) {
	seed := func(cells []Point, rounds int, opts ...Option) {
		sim := mustNew(f, cells, opts...)
		if _, err := sim.StepN(rounds); err != nil {
			f.Fatal(err)
		}
		snap, err := sim.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(snap)
	}
	for _, w := range []string{"hollow", "blob", "spiral"} {
		seed(mustWorkload(f, w, 40), 23, WithConnectivityCheck(true))
	}
	seed(mustWorkload(f, "blob", 30), 9, WithScheduler("ssync-rr:3"), WithAlgorithm("greedy"))
	seed(mustWorkload(f, "blob", 30), 12, WithFaults("crash:p=0.01+noise:p=0.02@5"), WithConnectivityCheck(true))
	small := mustNew(f, []Point{{0, 0}, {1, 0}, {2, 0}})
	f.Add(forgeSnapshot(f, small, hugeSlotWorld))
	f.Add(forgeSnapshot(f, mustNew(f, []Point{{0, 0}, {1, 0}}), sharedSlotWorld()))

	f.Fuzz(func(t *testing.T, b []byte) {
		sim, err := Restore(b)
		if err != nil {
			if !errors.Is(err, ErrSnapshotInvalid) && !errors.Is(err, ErrSnapshotTruncated) && !errors.Is(err, ErrSnapshotVersion) {
				t.Fatalf("untyped Restore error: %v", err)
			}
			return
		}
		again, err := sim.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("restored session re-snapshots to different bytes")
		}
		for i := 0; i < 3; i++ {
			if sim.Step() != nil {
				break
			}
		}
	})
}

// TestColdStartAllocation bounds what resuming a session allocates per
// robot: Restore of a mid-run 2^14-robot blob plus its first Step. The
// world keeps 4 bytes of run-state handle per slot and sizes its per-round
// buffers once, and the first connectivity query rebuilds the incremental
// structure instead of flooding with a BFS.
func TestColdStartAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2^14-robot session")
	}
	cells := fromSwarm(gen.RandomBlob(1<<14, 7))
	sim := mustNew(t, cells, WithConnectivityCheck(true))
	if _, err := sim.StepN(44); err != nil {
		t.Fatal(err)
	}
	snap, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Step(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(cells))
	// Measured 85.2 bytes per robot (linux/amd64, Go 1.24): the canonical
	// cell order and the arrival lane (each a cell array and a slot
	// array), the 8-byte actions, chunk tiles and per-slot handles and
	// verdict masks. The bound leaves about 25 % headroom; it was 160
	// while the cell order was also kept as cell-slot pairs and copied
	// into cell and slot views, and 489 before run states moved out of
	// line.
	const bound = 106
	if per > bound {
		t.Fatalf("Restore + first Step allocated %.1f bytes per robot, bound %d", per, bound)
	}
}

// TestSparseSwarmAllocation bounds what a long, thin swarm allocates per
// robot: New plus the first Step of a 2^14-robot line, hollow square and
// staircase. These fill few cells of each 64×64 chunk they cross, so the
// bound holds only while a chunk's point→slot index is allocated in 8×8
// blocks as robots write into it; two dense 16 KB slot planes per chunk
// cost about 810 bytes per robot here.
func TestSparseSwarmAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 2^14-robot sessions")
	}
	for _, name := range []string{"line", "hollow", "staircase"} {
		t.Run(name, func(t *testing.T) {
			cells, err := Workload(name, 1<<14)
			if err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sim := mustNew(t, cells)
			if err := sim.Step(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			per := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(cells))
			// Measured 304.8 (line), 307.7 (hollow) and 312.8 (staircase)
			// bytes per robot (linux/amd64, Go 1.24): the compact-swarm
			// allocations TestColdStartAllocation lists, plus per chunk
			// its fixed occupancy planes, its block tables and the slot
			// blocks both layers write. The bound leaves about 25 %
			// headroom over the largest.
			const bound = 390
			if per > bound {
				t.Fatalf("New + first Step of a %d-robot %s allocated %.1f bytes per robot, bound %d", len(cells), name, per, bound)
			}
		})
	}
}
