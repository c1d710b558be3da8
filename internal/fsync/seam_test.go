// Chunk-border coverage for the round pipeline: a crafted single-round
// scenario placing every conflict-prone interaction exactly across the
// x=64 chunk border — a simultaneous merge onto a border cell, transfer
// sender/receiver pairs straddling the border (one surviving, one whose
// sender merges), and a merged robot's brand-new kept run — and asserting
// the exact Table-1 outcomes on the nil-scheduler path and the
// explicit-scheduler path alike. Every target cell here is within L∞ 1 of
// the chunk border, while the filler robots are spread over four other
// chunks, including negative chunk coordinates.
package fsync

import (
	"fmt"
	"testing"

	"gridgather/internal/grid"
	"gridgather/internal/robot"
	"gridgather/internal/sched"
	"gridgather/internal/swarm"
)

// seamIdentity returns a valid planted run used purely to let the scripted
// algorithm identify a robot (the engine assigns its ID at plant time).
func seamIdentity() robot.Run {
	return robot.Run{Dir: grid.East, Inside: grid.North}
}

// seamScenario builds the border scenario. The returned engine has
// identity runs planted in deterministic order (IDs 1..n in plant order),
// so the scripted action table keys line up for every engine built from
// it.
func seamScenario(t *testing.T, scheduled bool) *Engine {
	t.Helper()
	// Cast, all adjacent to the border between chunk x-range [0,63] and
	// [64,127]. Plant order = action IDs 1..10.
	var (
		mergeA   = grid.Pt(63, 10) // moves east: merges with mergeB ON the border cell (64,10)
		mergeB   = grid.Pt(65, 10) // moves west
		sender   = grid.Pt(63, 12) // stays, hands its identity run east across the border
		receiver = grid.Pt(64, 12) // stays, keeps its identity, receives the hand-off
		keeper   = grid.Pt(63, 16) // stays, keeps identity + a brand-new run; merged onto from across the border
		attacker = grid.Pt(64, 16) // moves west onto keeper
		deadTx   = grid.Pt(64, 18) // stays, hands a brand-new run west — but is merged onto, so the hand-off dies
		deadAtk  = grid.Pt(65, 18) // moves west onto deadTx
		victim   = grid.Pt(63, 18) // stays, keeps its identity; must NOT receive deadTx's hand-off
		freshTx  = grid.Pt(64, 20) // stays, hands a brand-new run west across the border; survives
	)
	cast := []grid.Point{mergeA, mergeB, sender, receiver, keeper, attacker, deadTx, deadAtk, victim, freshTx}
	// freshRx at (63,20) receives freshTx's run; it needs no identity (its
	// scripted action is the default Stay). Fillers spread the rest of the
	// population over four more chunks, including negative chunk
	// coordinates.
	freshRx := grid.Pt(63, 20)
	fillers := []grid.Point{
		freshRx,
		grid.Pt(20, 5), grid.Pt(21, 5), grid.Pt(100, 5), grid.Pt(101, 5),
		grid.Pt(30, 70), grid.Pt(-10, 6), grid.Pt(-70, 6), grid.Pt(90, 70),
	}
	s := swarm.New()
	for _, p := range append(append([]grid.Point{}, cast...), fillers...) {
		s.Add(p)
	}

	fresh := func() robot.Run { return robot.Run{Dir: grid.North, Inside: grid.East} } // ID 0: brand-new
	withKeep := func(move grid.Point, runs ...robot.Run) Action {
		a := Action{Move: move}
		for _, r := range runs {
			a.AddKeep(r)
		}
		return a
	}

	cfg := Config{MaxRounds: 4, StrictViews: true}
	if scheduled {
		cfg.Scheduler = sched.FSYNC()
	}
	alg := &scripted{radius: 1, actions: map[grid.Point]Action{}}
	eng := New(s, alg, cfg)
	// Plant identities in cast order: robot i gets run ID i+1.
	ids := make(map[grid.Point]robot.Run, len(cast))
	for _, p := range cast {
		eng.SetState(p, robot.State{Runs: []robot.Run{seamIdentity()}})
		ids[p] = eng.StateAt(p).Runs[0]
	}
	key := func(p grid.Point) grid.Point { return grid.Pt(ids[p].ID, 0) }

	alg.actions[key(mergeA)] = MoveTo(grid.East)
	alg.actions[key(mergeB)] = MoveTo(grid.West)
	alg.actions[key(sender)] = xfer(grid.Zero, Transfer{To: grid.East, Run: ids[sender]})
	alg.actions[key(receiver)] = withKeep(grid.Zero, ids[receiver])
	alg.actions[key(keeper)] = withKeep(grid.Zero, ids[keeper], fresh())
	alg.actions[key(attacker)] = MoveTo(grid.West)
	alg.actions[key(deadTx)] = xfer(grid.Zero, Transfer{To: grid.West, Run: fresh()})
	alg.actions[key(deadAtk)] = MoveTo(grid.West)
	alg.actions[key(victim)] = withKeep(grid.Zero, ids[victim])
	aTx := withKeep(grid.Zero, ids[freshTx])
	aTx.AddTransfer(grid.West, fresh())
	alg.actions[key(freshTx)] = aTx
	return eng
}

// TestSeamPassConflicts steps the border scenario once and asserts the
// exact semantics on both scheduler paths.
func TestSeamPassConflicts(t *testing.T) {
	for _, scheduled := range []bool{false, true} {
		t.Run(fmt.Sprintf("scheduled=%v", scheduled), func(t *testing.T) {
			eng := seamScenario(t, scheduled)
			w := eng.World()
			popBefore := w.Len()
			if err := eng.Step(); err != nil {
				t.Fatalf("step: %v", err)
			}
			// Three merges: A+B on the border, attacker onto keeper,
			// deadAtk onto deadTx.
			if got := popBefore - w.Len(); got != 3 {
				t.Fatalf("removed %d robots, want 3", got)
			}
			if eng.Merges() != 3 {
				t.Fatalf("Merges = %d, want 3", eng.Merges())
			}
			// The border-cell merge leaves one runless robot at (64,10).
			if st := eng.StateAt(grid.Pt(64, 10)); !w.Has(grid.Pt(64, 10)) || st.HasRuns() {
				t.Fatalf("border merge cell: occupied=%v runs=%v", w.Has(grid.Pt(64, 10)), st.Runs)
			}
			// The cross-border hand-off delivered: receiver holds its own
			// identity plus the sender's run, in that order; the sender
			// survives runless.
			if st := eng.StateAt(grid.Pt(64, 12)); len(st.Runs) != 2 {
				t.Fatalf("receiver runs = %v, want identity + transferred", st.Runs)
			}
			if st := eng.StateAt(grid.Pt(63, 12)); st.HasRuns() {
				t.Fatalf("sender kept runs %v, want none", st.Runs)
			}
			// The merged keeper's state (identity AND the brand-new kept
			// run) died with the merge.
			if st := eng.StateAt(grid.Pt(63, 16)); !w.Has(grid.Pt(63, 16)) || st.HasRuns() {
				t.Fatalf("merged keeper cell: occupied=%v runs=%v", w.Has(grid.Pt(63, 16)), st.Runs)
			}
			// The merged sender's hand-off died: the victim holds only its
			// identity.
			if st := eng.StateAt(grid.Pt(63, 18)); len(st.Runs) != 1 {
				t.Fatalf("victim runs = %v, want only its identity", st.Runs)
			}
			// The surviving fresh hand-off was adopted and delivered:
			// exactly one run started engine-wide (the keeper's fresh keep
			// and the dead sender's fresh hand-off were interrupted).
			if eng.RunsStarted() != 1 {
				t.Fatalf("RunsStarted = %d, want 1", eng.RunsStarted())
			}
			if st := eng.StateAt(grid.Pt(63, 20)); len(st.Runs) != 1 || st.Runs[0].ID == 0 {
				t.Fatalf("fresh receiver runs = %v, want one adopted run", st.Runs)
			}
		})
	}
}
