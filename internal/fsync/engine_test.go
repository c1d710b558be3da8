package fsync

import (
	"errors"
	"testing"
	"unsafe"

	"gridgather/internal/grid"
	"gridgather/internal/robot"
	"gridgather/internal/swarm"
	"gridgather/internal/view"
)

// scripted is a test algorithm driven by a per-position action table.
type scripted struct {
	radius  int
	actions map[grid.Point]Action
}

func (s *scripted) Radius() int { return s.radius }
func (s *scripted) Compute(v *view.View) Action {
	// Views do not expose the origin; the scripted algorithm marks each
	// robot by probing its surroundings is overkill — instead we look the
	// action up via a closure-bound position channel. Simplest: actions
	// keyed by a unique local signature is fragile, so scripted tests use
	// one action for all robots unless the position key matches.
	return s.actions[s.originOf(v)]
}

// originOf recovers the origin by probing Occ over a small neighborhood —
// not possible in general. Instead tests plant distinct state IDs.
func (s *scripted) originOf(v *view.View) grid.Point {
	// Identify the robot by its run ID planted by the test.
	if runs := v.Self().Runs; len(runs) > 0 {
		return grid.Pt(runs[0].ID, 0) // tests encode the key in the ID
	}
	return grid.Point{}
}

// xfer builds an action that moves by move and hands off the given runs —
// the literal-style construction that Action's inline storage replaced.
func xfer(move grid.Point, trs ...Transfer) Action {
	a := Action{Move: move}
	for _, t := range trs {
		a.AddTransfer(t.To, t.Run)
	}
	return a
}

// keep builds a stay action retaining the given runs.
func keep(runs ...robot.Run) Action {
	var a Action
	for _, r := range runs {
		a.AddKeep(r)
	}
	return a
}

func TestEngineCollisionMerges(t *testing.T) {
	// Three robots in a row; the outer two hop onto the middle.
	s := swarm.New(grid.Pt(0, 0), grid.Pt(1, 0), grid.Pt(2, 0))
	alg := &scripted{radius: 5, actions: map[grid.Point]Action{
		grid.Pt(1, 0): MoveTo(grid.East), // robot with run ID 1 (planted at (0,0)) hops east
		grid.Pt(2, 0): MoveTo(grid.West), // robot with run ID 2 (planted at (2,0)) hops west
	}}
	eng := New(s, alg, Config{})
	eng.SetState(grid.Pt(0, 0), robot.State{Runs: []robot.Run{{ID: 1, Dir: grid.East, Inside: grid.North}}})
	eng.SetState(grid.Pt(2, 0), robot.State{Runs: []robot.Run{{ID: 2, Dir: grid.West, Inside: grid.North}}})
	if err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	if eng.Swarm().Len() != 1 {
		t.Errorf("robots = %d, want 1 (two merges)", eng.Swarm().Len())
	}
	if eng.Merges() != 2 {
		t.Errorf("merges = %d", eng.Merges())
	}
	// The survivor of a collision loses all run states (Table 1.3).
	if st := eng.StateAt(grid.Pt(1, 0)); st.HasRuns() {
		t.Error("collision survivor kept run states")
	}
}

// TestActionRecordSize pins the per-robot action record at 8 bytes: the
// engine holds one for every robot that moves or holds, keeps or
// transfers runs each round, so its size is a share of every session's
// round scratch.
func TestActionRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(actionAt{}); got != 8 {
		t.Fatalf("actionAt is %d bytes, want 8", got)
	}
}

func TestEngineRejectsFastMoves(t *testing.T) {
	s := swarm.New(grid.Pt(0, 0))
	alg := &scripted{radius: 5, actions: map[grid.Point]Action{
		grid.Pt(1, 0): MoveTo(grid.Pt(2, 0)),
	}}
	eng := New(s, alg, Config{})
	eng.SetState(grid.Pt(0, 0), robot.State{Runs: []robot.Run{{ID: 1, Dir: grid.East, Inside: grid.North}}})
	if err := eng.Step(); err == nil {
		t.Fatal("expected speed-limit error")
	}
}

func TestEngineDetectsDisconnection(t *testing.T) {
	s := swarm.New(grid.Pt(0, 0), grid.Pt(1, 0), grid.Pt(2, 0))
	// The middle robot walks away north, splitting the line.
	alg := &scripted{radius: 5, actions: map[grid.Point]Action{
		grid.Pt(1, 0): MoveTo(grid.North),
	}}
	eng := New(s, alg, Config{CheckConnectivity: true})
	eng.SetState(grid.Pt(1, 0), robot.State{Runs: []robot.Run{{ID: 1, Dir: grid.East, Inside: grid.North}}})
	err := eng.Step()
	var dis ErrDisconnected
	if !errors.As(err, &dis) {
		t.Fatalf("err = %v, want ErrDisconnected", err)
	}
}

func TestEngineTransferDelivery(t *testing.T) {
	s := swarm.New(grid.Pt(0, 0), grid.Pt(1, 0))
	run := robot.Run{ID: 1, Dir: grid.East, Inside: grid.North}
	alg := &scripted{radius: 5, actions: map[grid.Point]Action{
		grid.Pt(1, 0): xfer(grid.Zero, Transfer{To: grid.East, Run: run}),
	}}
	eng := New(s, alg, Config{})
	eng.SetState(grid.Pt(0, 0), robot.State{Runs: []robot.Run{run}})
	if err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	if st := eng.StateAt(grid.Pt(1, 0)); !st.HasRuns() {
		t.Fatal("transfer not delivered")
	}
	if st := eng.StateAt(grid.Pt(0, 0)); st.HasRuns() {
		t.Error("sender kept the run")
	}
}

func TestEngineTransferToVacatedCellDies(t *testing.T) {
	s := swarm.New(grid.Pt(0, 0), grid.Pt(1, 0), grid.Pt(1, 1))
	run := robot.Run{ID: 1, Dir: grid.East, Inside: grid.North}
	alg := &scripted{radius: 5, actions: map[grid.Point]Action{
		grid.Pt(1, 0): xfer(grid.Zero, Transfer{To: grid.East, Run: run}),
		grid.Pt(2, 0): MoveTo(grid.North), // the target robot hops away onto (1,1): merge
	}}
	eng := New(s, alg, Config{})
	eng.SetState(grid.Pt(0, 0), robot.State{Runs: []robot.Run{run}})
	eng.SetState(grid.Pt(1, 0), robot.State{Runs: []robot.Run{{ID: 2, Dir: grid.East, Inside: grid.North}}})
	if err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	for _, p := range eng.Runners() {
		t.Errorf("unexpected runner at %v", p)
	}
}

func TestEngineRunCapRespected(t *testing.T) {
	s := swarm.New(grid.Pt(0, 0), grid.Pt(1, 0), grid.Pt(2, 0), grid.Pt(1, 1))
	// Two senders transfer to the same target that already keeps one run:
	// the cap of two runs per robot must hold.
	mk := func(id int) robot.Run { return robot.Run{ID: id, Dir: grid.East, Inside: grid.North} }
	alg := &scripted{radius: 5, actions: map[grid.Point]Action{
		grid.Pt(1, 0): xfer(grid.Zero, Transfer{To: grid.East, Run: mk(1)}),      // from (0,0) to (1,0)
		grid.Pt(2, 0): keep(mk(2)),                                               // (1,0) keeps its run
		grid.Pt(3, 0): xfer(grid.Zero, Transfer{To: grid.West, Run: mk(3)}),      // from (2,0) to (1,0)
		grid.Pt(4, 0): xfer(grid.Zero, Transfer{To: grid.SouthEast, Run: mk(4)}), // from (1,1)... wait SouthEast of (1,1) is (2,0)
	}}
	eng := New(s, alg, Config{})
	eng.SetState(grid.Pt(0, 0), robot.State{Runs: []robot.Run{mk(1)}})
	eng.SetState(grid.Pt(1, 0), robot.State{Runs: []robot.Run{mk(2)}})
	eng.SetState(grid.Pt(2, 0), robot.State{Runs: []robot.Run{mk(3)}})
	eng.SetState(grid.Pt(1, 1), robot.State{Runs: []robot.Run{mk(4)}})
	if err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	st := eng.StateAt(grid.Pt(1, 0))
	if len(st.Runs) > robot.MaxRuns {
		t.Errorf("robot holds %d runs, cap is %d", len(st.Runs), robot.MaxRuns)
	}
}

func TestEngineGatheredStopsRun(t *testing.T) {
	s := swarm.New(grid.Pt(0, 0), grid.Pt(1, 0), grid.Pt(0, 1), grid.Pt(1, 1))
	alg := &scripted{radius: 5, actions: map[grid.Point]Action{}}
	eng := New(s, alg, Config{MaxRounds: 10})
	res := eng.Run()
	if !res.Gathered || res.Rounds != 0 {
		t.Errorf("2x2 block: %+v", res)
	}
}

func TestEngineRoundLimit(t *testing.T) {
	s := swarm.New(grid.Pt(0, 0), grid.Pt(1, 0), grid.Pt(2, 0))
	alg := &scripted{radius: 5, actions: map[grid.Point]Action{}} // nobody moves
	eng := New(s, alg, Config{MaxRounds: 7})
	res := eng.Run()
	var lim ErrRoundLimit
	if !errors.As(res.Err, &lim) {
		t.Fatalf("err = %v", res.Err)
	}
	if res.Rounds != 7 || res.Gathered {
		t.Errorf("res = %+v", res)
	}
}

func TestEngineWatchdog(t *testing.T) {
	s := swarm.New(grid.Pt(0, 0), grid.Pt(1, 0), grid.Pt(2, 0))
	alg := &scripted{radius: 5, actions: map[grid.Point]Action{}}
	eng := New(s, alg, Config{MaxRounds: 100, NoMergeLimit: 5})
	res := eng.Run()
	var stuck ErrStuck
	if !errors.As(res.Err, &stuck) {
		t.Fatalf("err = %v", res.Err)
	}
}

func TestEngineDoesNotMutateInput(t *testing.T) {
	s := swarm.New(grid.Pt(0, 0), grid.Pt(1, 0), grid.Pt(2, 0))
	alg := &scripted{radius: 5, actions: map[grid.Point]Action{
		grid.Pt(1, 0): MoveTo(grid.East),
	}}
	eng := New(s, alg, Config{})
	eng.SetState(grid.Pt(0, 0), robot.State{Runs: []robot.Run{{ID: 1, Dir: grid.East, Inside: grid.North}}})
	if err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 || !s.Has(grid.Pt(0, 0)) {
		t.Error("input swarm mutated")
	}
}

// TestEngineTransferFromMergingSenderDies pins the Table 1 semantics for
// the round in which a runner both hands off a run and merges: "it was part
// of a merge operation" stops ALL of the robot's runs, including states in
// flight to a neighbor. The engine used to deliver such transfers
// unconditionally; the hand-off must die with the sender.
func TestEngineTransferFromMergingSenderDies(t *testing.T) {
	// Sender (0,0) stays and transfers its run east to (1,0); robot (0,1)
	// drops onto the sender's cell, merging the sender.
	s := swarm.New(grid.Pt(0, 0), grid.Pt(1, 0), grid.Pt(0, 1))
	run := robot.Run{ID: 1, Dir: grid.East, Inside: grid.North}
	// The sender hands off a brand-new run (ID 0) alongside: it must not be
	// delivered NOR counted as started, since it dies in the same round.
	fresh := robot.Run{Dir: grid.East, Inside: grid.North}
	alg := &scripted{radius: 5, actions: map[grid.Point]Action{
		grid.Pt(1, 0): xfer(grid.Zero,
			Transfer{To: grid.East, Run: run},
			Transfer{To: grid.East, Run: fresh},
		),
		grid.Pt(2, 0): MoveTo(grid.South), // robot with run ID 2, at (0,1)
	}}
	eng := New(s, alg, Config{})
	eng.SetState(grid.Pt(0, 0), robot.State{Runs: []robot.Run{run}})
	eng.SetState(grid.Pt(0, 1), robot.State{Runs: []robot.Run{{ID: 2, Dir: grid.East, Inside: grid.North}}})
	if err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	if eng.Merges() != 1 {
		t.Fatalf("merges = %d, want 1", eng.Merges())
	}
	if st := eng.StateAt(grid.Pt(1, 0)); st.HasRuns() {
		t.Errorf("transfer from merging sender was delivered: %v", st.Runs)
	}
	if eng.RunsStarted() != 0 {
		t.Errorf("RunsStarted = %d, want 0 (dropped hand-off of a new run must not count)", eng.RunsStarted())
	}
}

// TestEngineTransferFromRollingMergerDies covers the OP-A flavor of the
// same rule: a runner that hops onto an occupied cell (Table 1.6) merges,
// so a second run it was gliding to a neighbor in the same round must die
// too.
func TestEngineTransferFromRollingMergerDies(t *testing.T) {
	// Sender (0,0) hops east onto the occupied (1,0) while handing a run
	// north to (0,1).
	s := swarm.New(grid.Pt(0, 0), grid.Pt(1, 0), grid.Pt(0, 1))
	run := robot.Run{ID: 1, Dir: grid.North, Inside: grid.East}
	alg := &scripted{radius: 5, actions: map[grid.Point]Action{
		grid.Pt(1, 0): xfer(grid.East, Transfer{To: grid.North, Run: run}),
	}}
	eng := New(s, alg, Config{})
	eng.SetState(grid.Pt(0, 0), robot.State{Runs: []robot.Run{run}})
	if err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	if eng.Merges() != 1 {
		t.Fatalf("merges = %d, want 1", eng.Merges())
	}
	if st := eng.StateAt(grid.Pt(0, 1)); st.HasRuns() {
		t.Errorf("transfer from merging sender was delivered: %v", st.Runs)
	}
}

// staticSched is a test scheduler with a fixed per-round activation rule.
type staticSched struct {
	active func(round int, p grid.Point) bool
}

func (s staticSched) Activate(round int, cells []grid.Point, _ []int32, active []bool) {
	for i, p := range cells {
		active[i] = s.active(round, p)
	}
}
func (staticSched) Fairness(int) int                       { return 1 }
func (staticSched) String() string                         { return "static" }
func (staticSched) AppendCursor(b []byte) []byte           { return b }
func (staticSched) RestoreCursor(b []byte) ([]byte, error) { return b, nil }

// TestEngineSleepersKeepStateAndClock checks the relaxed-scheduler
// semantics: robots outside the activation set stay put, keep their run
// states frozen, and their logical clocks do not tick.
func TestEngineSleepersKeepStateAndClock(t *testing.T) {
	s := swarm.New(grid.Pt(0, 0), grid.Pt(1, 0), grid.Pt(2, 0))
	run := robot.Run{ID: 1, Dir: grid.East, Inside: grid.North, Age: 3}
	alg := &scripted{radius: 5, actions: map[grid.Point]Action{}}
	// Only (2,0) is ever activated.
	eng := New(s, alg, Config{Scheduler: staticSched{
		active: func(_ int, p grid.Point) bool { return p == grid.Pt(2, 0) },
	}})
	eng.SetState(grid.Pt(0, 0), robot.State{Runs: []robot.Run{run}})
	for r := 0; r < 3; r++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.StateAt(grid.Pt(0, 0))
	if len(st.Runs) != 1 || st.Runs[0] != run {
		t.Errorf("sleeping runner's state changed: %v", st.Runs)
	}
	if got := eng.LocalRound(grid.Pt(0, 0)); got != 0 {
		t.Errorf("sleeping robot's clock = %d, want 0", got)
	}
	if got := eng.LocalRound(grid.Pt(2, 0)); got != 3 {
		t.Errorf("activated robot's clock = %d, want 3", got)
	}
	if eng.Round() != 3 {
		t.Errorf("global round = %d, want 3", eng.Round())
	}
}

// TestEngineSleeperReceivesTransfer: a sleeping robot can still be handed a
// run state — the hand-off is the sender's action, not the recipient's.
func TestEngineSleeperReceivesTransfer(t *testing.T) {
	s := swarm.New(grid.Pt(0, 0), grid.Pt(1, 0))
	run := robot.Run{ID: 1, Dir: grid.East, Inside: grid.North}
	alg := &scripted{radius: 5, actions: map[grid.Point]Action{
		grid.Pt(1, 0): xfer(grid.Zero, Transfer{To: grid.East, Run: run}),
	}}
	eng := New(s, alg, Config{Scheduler: staticSched{
		active: func(_ int, p grid.Point) bool { return p == grid.Pt(0, 0) },
	}})
	eng.SetState(grid.Pt(0, 0), robot.State{Runs: []robot.Run{run}})
	if err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	if st := eng.StateAt(grid.Pt(1, 0)); !st.HasRuns() {
		t.Error("sleeping recipient did not receive the transfer")
	}
	if st := eng.StateAt(grid.Pt(0, 0)); st.HasRuns() {
		t.Error("sender kept the run")
	}
}

// TestEngineNegativeMaxRoundsNormalized: negative limits are reserved and
// normalized to "unlimited" (the public API rejects them before they reach
// the engine).
func TestEngineNegativeMaxRoundsNormalized(t *testing.T) {
	eng := New(swarm.New(grid.Pt(0, 0)), &scripted{radius: 5}, Config{MaxRounds: -7})
	if eng.cfg.MaxRounds != 0 {
		t.Errorf("MaxRounds = %d, want 0", eng.cfg.MaxRounds)
	}
}

func TestSetStatePanicsOnFreeCell(t *testing.T) {
	s := swarm.New(grid.Pt(0, 0))
	eng := New(s, &scripted{radius: 5}, Config{})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	eng.SetState(grid.Pt(5, 5), robot.State{Runs: []robot.Run{{Dir: grid.East, Inside: grid.North}}})
}

// TestEngineKeepFromMergedRobotNotStarted pins the keep-path analogue of
// the transfer-death rule: a robot that keeps a brand-new run (ID 0) and
// is merged onto in the same round never started it — no ID is consumed
// and RunsStarted stays zero, exactly as for an undelivered hand-off.
func TestEngineKeepFromMergedRobotNotStarted(t *testing.T) {
	s := swarm.New(grid.Pt(0, 0), grid.Pt(0, 1))
	fresh := robot.Run{Dir: grid.East, Inside: grid.North}
	// Robots are addressed through planted marker runs (scripted keys on
	// the first run ID); the keeper drops its marker and keeps only the
	// fresh ID-0 run.
	alg := &scripted{radius: 5, actions: map[grid.Point]Action{
		grid.Pt(7, 0): keep(fresh),
		grid.Pt(9, 0): MoveTo(grid.South), // drops onto the keeper
	}}
	eng := New(s, alg, Config{})
	eng.SetState(grid.Pt(0, 0), robot.State{Runs: []robot.Run{{ID: 7, Dir: grid.East, Inside: grid.North}}})
	eng.SetState(grid.Pt(0, 1), robot.State{Runs: []robot.Run{{ID: 9, Dir: grid.East, Inside: grid.North}}})
	if err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	if eng.Merges() != 1 {
		t.Fatalf("merges = %d, want 1", eng.Merges())
	}
	if got := eng.RunsStarted(); got != 0 {
		t.Errorf("fresh keep of a merged robot was counted as started: RunsStarted = %d", got)
	}
	if st := eng.StateAt(grid.Pt(0, 0)); st.HasRuns() {
		t.Errorf("merged cell retained the kept run: %v", st.Runs)
	}
}

// TestEngineFreshKeepSurvivesAndAdopts is the positive counterpart: a
// surviving keeper's fresh run is adopted — assigned a nonzero ID and
// counted — in the same round.
func TestEngineFreshKeepSurvivesAndAdopts(t *testing.T) {
	s := swarm.New(grid.Pt(0, 0), grid.Pt(1, 0))
	fresh := robot.Run{Dir: grid.East, Inside: grid.North}
	alg := &scripted{radius: 5, actions: map[grid.Point]Action{
		grid.Pt(7, 0): keep(fresh),
	}}
	eng := New(s, alg, Config{})
	eng.SetState(grid.Pt(0, 0), robot.State{Runs: []robot.Run{{ID: 7, Dir: grid.East, Inside: grid.North}}})
	if err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	if got := eng.RunsStarted(); got != 1 {
		t.Fatalf("RunsStarted = %d, want 1", got)
	}
	st := eng.StateAt(grid.Pt(0, 0))
	if len(st.Runs) != 1 || st.Runs[0].ID == 0 {
		t.Fatalf("kept run not adopted: %v", st.Runs)
	}
}
