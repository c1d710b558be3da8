package fsync

import (
	"fmt"

	"gridgather/internal/grid"
	"gridgather/internal/robot"
)

// Action is the result of one robot's compute step: the move it performs and
// the disposition of its run states. All coordinates are relative to the
// robot's position at the start of the round.
//
// Kept and transferred runs are stored inline (a robot holds at most
// robot.MaxRuns run states, so both lists are bounded by that constant);
// building an Action therefore never allocates, which keeps the engine's
// per-round cost flat even when every runner hands its state along the
// boundary every round.
type Action struct {
	// Move is the relative cell the robot hops to this round. grid.Zero
	// means stay. Must satisfy L∞ ≤ 1 (a robot "can move to one of its
	// eight neighboring grid cells").
	Move grid.Point

	keep       [robot.MaxRuns]robot.Run
	nKeep      int8
	transfers  [robot.MaxRuns]Transfer
	nTransfers int8
}

// Transfer hands a run state to the robot located at the relative cell To
// (position before this round's moves), implementing "move runstate" of
// §3.2. If no robot occupies the target after the round — because the
// target hopped away or merged — the run terminates (Table 1, conditions
// 3–5: the operation was interrupted).
type Transfer struct {
	To  grid.Point
	Run robot.Run
}

// AddKeep records a run state the robot retains (at its new position).
// A robot stores at most robot.MaxRuns runs; keeping more is an algorithm
// bug and panics.
func (a *Action) AddKeep(r robot.Run) {
	if int(a.nKeep) >= robot.MaxRuns {
		panic(fmt.Sprintf("fsync: action keeps more than robot.MaxRuns=%d runs", robot.MaxRuns))
	}
	a.keep[a.nKeep] = r
	a.nKeep++
}

// AddTransfer records a run state handed to the robot at the relative cell
// to. Any held run that is neither kept nor transferred terminates
// (Table 1). A robot holds at most robot.MaxRuns runs, so handing off more
// is an algorithm bug and panics.
func (a *Action) AddTransfer(to grid.Point, r robot.Run) {
	if int(a.nTransfers) >= robot.MaxRuns {
		panic(fmt.Sprintf("fsync: action transfers more than robot.MaxRuns=%d runs", robot.MaxRuns))
	}
	a.transfers[a.nTransfers] = Transfer{To: to, Run: r}
	a.nTransfers++
}

// Keep returns the retained run states (read-only view of the inline
// storage).
func (a *Action) Keep() []robot.Run { return a.keep[:a.nKeep] }

// Transfers returns the recorded hand-offs (read-only view of the inline
// storage).
func (a *Action) Transfers() []Transfer { return a.transfers[:a.nTransfers] }

// Stay is the do-nothing action.
var Stay = Action{}

// MoveTo returns an action that only moves.
func MoveTo(d grid.Point) Action { return Action{Move: d} }
