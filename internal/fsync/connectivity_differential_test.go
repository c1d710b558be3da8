// Oracle suite for the incremental connectivity layer: an engine checking
// connectivity every round through the incremental layer must answer as
// the scratch flood does — after every round its world's Connected must
// equal ConnectedBFS — across the seeded workload corpus, every scheduler
// family and several worker counts. Wherever the engine aborts with
// ErrDisconnected, the scratch BFS must find the swarm disconnected too.
//
// The planted-disconnection tests drive the complementary direction: a
// scripted algorithm severs a known bridge robot at a known round, and the
// engine must report ErrDisconnected at exactly that round.
package fsync_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"gridgather/internal/baseline/asyncseq"
	"gridgather/internal/core"
	"gridgather/internal/fsync"
	"gridgather/internal/gen"
	"gridgather/internal/grid"
	"gridgather/internal/sched"
	"gridgather/internal/swarm"
	"gridgather/internal/view"
)

// connEngine builds an engine over the swarm with the connectivity check
// on: the paper's algorithm under FSYNC, the asyncseq baseline under any
// other scheduler spec.
func connEngine(t *testing.T, s *swarm.Swarm, spec string, workers int) (eng *fsync.Engine, maxRounds int) {
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
	budget := fsync.DefaultBudget(s.Len())
	if sch != nil {
		budget = budget.Scale(sch.Fairness(s.Len()))
	}
	return fsync.New(s, alg, fsync.Config{
		MaxRounds:         budget.MaxRounds,
		NoMergeLimit:      budget.NoMergeLimit,
		CheckConnectivity: true,
		Workers:           workers,
		Scheduler:         sch,
	}), budget.MaxRounds
}

// stepChecked advances the engine one round and holds its world's
// incremental answers to the scratch flood. An ErrDisconnected abort must
// leave a world the scratch BFS finds disconnected.
func stepChecked(t *testing.T, eng *fsync.Engine) error {
	t.Helper()
	err := eng.Step()
	w := eng.World()
	bfs := w.ConnectedBFS()
	if got := w.Connected(); got != bfs {
		t.Fatalf("round %d: incremental Connected = %v, scratch BFS = %v", eng.Round(), got, bfs)
	}
	if errors.As(err, new(fsync.ErrDisconnected)) && bfs {
		t.Fatalf("round %d: %v, but the scratch BFS finds the swarm connected", eng.Round(), err)
	}
	return err
}

// TestConnectivityDifferential is the headline oracle suite: seeded
// catalog × scheduler families × worker counts, one engine per cell run
// until it gathers, its incremental answers checked every round.
func TestConnectivityDifferential(t *testing.T) {
	const n = 56
	specs := []string{"fsync", "ssync-rr:3", "ssync-rand:3", "ssync-lazy:5", "async:8"}
	for _, w := range gen.SeededCatalog() {
		for _, spec := range specs {
			for _, workers := range []int{1, 4, 16} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", w.Name, spec, workers), func(t *testing.T) {
					eng, maxRounds := connEngine(t, w.Build(n, 42), spec, workers)
					for r := 0; r < maxRounds && !eng.Gathered(); r++ {
						if err := stepChecked(t, eng); err != nil {
							t.Fatalf("round %d: %v", eng.Round(), err)
						}
					}
					if !eng.Gathered() {
						t.Fatal("round budget exhausted before gathering")
					}
					st := eng.World().ConnStats()
					if st.Queries == 0 || st.Fallbacks != 1 {
						t.Fatalf("incremental layer never took over: %+v", st)
					}
				})
			}
		}
	}
}

// bridgeCutAlg holds every robot still except the unique bridge robot of
// the planted two-block dumbbell, which steps north the first time it is
// activated at view round ≥ cutRound — severing the swarm.
type bridgeCutAlg struct{ cutRound int }

func (bridgeCutAlg) Radius() int { return 2 }

func (a bridgeCutAlg) Compute(v *view.View) fsync.Action {
	if v.Round() < a.cutRound {
		return fsync.Stay
	}
	// The bridge's signature: within L1 radius 2, exactly (±1, 0) and
	// (±2, 0) occupied. Block cells see denser neighborhoods; the two
	// bridge ends see the blocks' corner cells off-axis.
	for dy := -2; dy <= 2; dy++ {
		for dx := -2 + abs(dy); dx <= 2-abs(dy); dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			want := dy == 0 && dx != 0
			if v.Occ(grid.Pt(dx, dy)) != want {
				return fsync.Stay
			}
		}
	}
	return fsync.MoveTo(grid.Pt(0, 1))
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// dumbbell is the planted shape: two 3×3 blocks joined by a three-robot
// bridge whose middle robot, at (4, 1), is the unique articulation point
// bridgeCutAlg cuts.
func dumbbell() *swarm.Swarm {
	s := swarm.New()
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			s.Add(grid.Pt(x, y))
			s.Add(grid.Pt(x+6, y))
		}
	}
	s.Add(grid.Pt(3, 1))
	s.Add(grid.Pt(4, 1))
	s.Add(grid.Pt(5, 1))
	return s
}

// TestPlantedDisconnection severs the dumbbell's bridge at a known round
// and checks the engine aborts with ErrDisconnected at the first round the
// scratch BFS finds the swarm disconnected — and, under FSYNC (where
// activation timing is total), exactly the planted round.
func TestPlantedDisconnection(t *testing.T) {
	const cut = 7
	for _, spec := range []string{"fsync", "ssync-rr:3", "async:8"} {
		t.Run(spec, func(t *testing.T) {
			var sch sched.Scheduler
			if spec != "fsync" {
				var err error
				if sch, err = sched.Parse(spec, 42); err != nil {
					t.Fatal(err)
				}
			}
			eng := fsync.New(dumbbell(), bridgeCutAlg{cutRound: cut}, fsync.Config{
				MaxRounds:         1000,
				CheckConnectivity: true,
				StrictViews:       true,
				Workers:           4,
				Scheduler:         sch,
			})
			var dis fsync.ErrDisconnected
			for r := 0; r < 1000; r++ {
				// stepChecked holds every earlier round connected under
				// the scratch BFS, and this one disconnected.
				if err := stepChecked(t, eng); err != nil {
					if !errors.As(err, &dis) {
						t.Fatalf("step %d: %v (want ErrDisconnected)", r, err)
					}
					break
				}
			}
			if dis.Round == 0 {
				t.Fatal("the planted cut never disconnected the swarm")
			}
			if spec == "fsync" && dis.Round != cut+1 {
				// Views carry the pre-increment round counter, so a move
				// computed at view round `cut` lands in engine round cut+1.
				t.Fatalf("FSYNC abort round = %d, want %d", dis.Round, cut+1)
			}
		})
	}
}

// TestConnectivitySnapshotRestore cuts a run mid-flight, snapshots the
// engine and restores it. The restored engine starts with a cold
// incremental structure; it and the original must stay in lockstep to the
// end, both checked against the scratch flood every round, proving Restore
// rebuilds the incremental state without observable difference.
func TestConnectivitySnapshotRestore(t *testing.T) {
	s := gen.SeededCatalog()[0].Build(56, 42)
	orig, maxRounds := connEngine(t, s, "fsync", 4)
	// The line gathers in 27 rounds at this size: cut well before that.
	for r := 0; r < 10; r++ {
		if err := stepChecked(t, orig); err != nil {
			t.Fatal(err)
		}
	}
	restored, rest, err := fsync.NewRestored(core.Default(), fsync.Config{
		MaxRounds:         maxRounds,
		CheckConnectivity: true,
		Workers:           4,
	}, orig.AppendState(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after restore", len(rest))
	}
	for r := 0; r < maxRounds && !orig.Gathered(); r++ {
		errO, errR := stepChecked(t, orig), stepChecked(t, restored)
		if errO != nil || errR != nil {
			t.Fatalf("round %d: original %v, restored %v", orig.Round(), errO, errR)
		}
		if !bytes.Equal(orig.AppendState(nil), restored.AppendState(nil)) {
			t.Fatalf("round %d: restored engine diverged from the original", orig.Round())
		}
	}
	if !orig.Gathered() || !restored.Gathered() {
		t.Fatalf("gather diverged: original=%v restored=%v", orig.Gathered(), restored.Gathered())
	}
	if st := restored.World().ConnStats(); st.Fallbacks != 1 {
		t.Fatalf("restored engine's connectivity stats %+v, want one cold rebuild", st)
	}
}
