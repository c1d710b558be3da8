// Package fsync implements the round-based simulation engine. Its default
// time model is the paper's fully synchronous FSYNC: time is divided into
// equal rounds; in every round all robots simultaneously execute one
// look-compute-move cycle. The engine owns the global state, builds each
// robot's radius-limited view, applies all moves simultaneously, merges
// robots that end up on the same cell ("if two or more robots move to the
// same location they are merged to be only one robot"), delivers run-state
// transfers, and checks model invariants.
//
// The global state lives in a world.Dense: a tiled bitset occupancy index
// over 64×64-cell chunks with slot-indexed run-state handles and logical
// clocks and an incrementally maintained sorted cell order.
//
// # The staged round pipeline
//
// Step executes each round in four explicit stages:
//
//	Activate  draw the round's crashes into the world's crash marks and
//	          take the scheduler's activation mask over the canonical cell
//	          order (none under FSYNC): the mask and the crash marks are
//	          the only record of who runs
//	Compute   Look+Compute for every activated robot against the
//	          immutable pre-round snapshot
//	Resolve   apply the round's moves and run changes in canonical cell
//	          order: departures, landings and merge resolution, then one
//	          pass in which each sole survivor adopts its kept runs and
//	          its transfers are collected, then transfer adoption and
//	          delivery
//	Commit    the world patches the canonical cell order with the round's
//	          vacated, merged and newly occupied cells and diffs the rows
//	          it wrote
//
// Every stage runs on the goroutine that calls Step. Compute is one loop
// over the world's cell order that passes over the sleepers; for each
// activated robot it draws the activation's sensor noise,
// replays or records its quiescent verdict, ticks the robot's logical
// clock under a scheduler, and records the action of every robot that
// moves or holds, keeps or transfers runs, so Resolve sees every action of
// the round before it moves anyone. In the paper's strategy only boundary
// robots move; every other robot stays with its state unchanged, and such
// a stayer, activated or asleep, costs Resolve and Commit nothing: they
// walk only the recorded robots and the cells they leave and land on.
//
// A Config.Scheduler (internal/sched) relaxes the synchrony: each round
// only the scheduler's activation subset runs a look-compute-move cycle
// (SSYNC subsets, ASYNC wavefronts) while the remaining robots sleep in
// place, keeping their positions and run states. Activated robots then see
// a per-robot logical clock (their own completed cycle count) instead of
// the global round counter, so local-clock-driven rules like the every-L-th
// round run-start schedule remain meaningful without global synchrony.
// Under the default FSYNC model the logical clocks coincide with the global
// round counter, and a nil Scheduler keeps no mask and no clocks, which is
// bit-identical to the explicit FSYNC scheduler (proved by the determinism
// tests).
//
//gather:deterministic
package fsync

import (
	"cmp"
	"fmt"
	"slices"

	"gridgather/internal/fault"
	"gridgather/internal/grid"
	"gridgather/internal/robot"
	"gridgather/internal/sched"
	"gridgather/internal/swarm"
	"gridgather/internal/view"
	"gridgather/internal/world"
)

// Algorithm is a distributed robot program: a pure function from a local
// view to an action, executed synchronously by every robot every round.
type Algorithm interface {
	// Compute runs the compute step for one robot.
	Compute(v *view.View) Action
	// Radius returns the viewing radius (L1) the algorithm requires.
	Radius() int
}

// Periodic is an optional Algorithm extension that unlocks the quiescence
// fast path. An algorithm implementing it promises that Compute is a pure
// function of the view's cell contents (occupancy, states, crash marks
// within the radius) and of v.Round() mod RoundPeriod() ONLY — two
// activations whose views agree cell-for-cell and whose rounds are
// congruent mod the period must produce identical actions. The paper's
// algorithm qualifies with period L (run starts fire on round%L == 0 and
// nothing else reads the round); round-oblivious algorithms qualify with
// period 1. Algorithms that read the absolute round, randomize, or carry
// hidden per-robot state must NOT implement it. Periods outside [1, 32]
// disable the fast path (verdict masks are 32 bits wide).
type Periodic interface {
	RoundPeriod() int
}

// Config controls engine behaviour.
type Config struct {
	// MaxRounds aborts the simulation after this many rounds. 0 means no
	// limit (use with care); negative values are normalized to 0 by New.
	// Callers that want the standard limits should use DefaultBudget; the
	// public API rejects negative values outright.
	MaxRounds int
	// CheckConnectivity verifies after every round that the swarm is still
	// connected, and aborts with an error if not. The paper's central
	// safety property is that "robot movements must not harm the (only
	// globally checkable) swarm connectivity". The check answers through
	// the world's incremental connectivity layer (see
	// internal/world/connincr.go); the connectivity suite holds it to the
	// scratch BFS every round.
	CheckConnectivity bool
	// StrictViews makes views panic on out-of-radius reads, proving the
	// algorithm local. Slightly slower; on by default in tests.
	StrictViews bool
	// NoMergeLimit aborts with ErrStuck when this many consecutive rounds
	// pass without a merge (0 disables). Gathering must merge at least
	// every O(L + n) rounds, so tests set a generous linear budget.
	NoMergeLimit int
	// Workers is accepted and ignored: every round runs on the goroutine
	// that calls Step.
	//
	// Deprecated: kept only because perfbench sets it; ROADMAP item 13
	// deletes it.
	Workers int
	// Scheduler yields each round's activation mask over the canonical
	// cell order, generalizing the time model to SSYNC/ASYNC (see
	// internal/sched); the stages read the world's cell order in place and
	// pass over the robots the mask leaves out. nil means FSYNC — every
	// robot every round — with no mask and no logical clocks, bit-identical
	// to the explicit sched.FSYNC() scheduler. Robots outside the mask
	// sleep: they keep their position and run states unchanged (their runs
	// neither age nor glide) and can still receive transferred runs and be
	// merged onto. Budgets (MaxRounds, NoMergeLimit) should be scaled by
	// the scheduler's fairness bound; see DefaultBudget.Scale.
	Scheduler sched.Scheduler
	// Faults, when non-nil, injects deterministic crash-stop and
	// sensor-noise faults (see internal/fault). A crashed robot freezes
	// forever: it stays an occupied, mergeable-onto cell, asleep whatever
	// the scheduler's mask says, its runs frozen. Faults also switch the
	// engine to graceful degradation: a disconnection no longer aborts the
	// run — it latches degraded mode, where Gathered() means "the live
	// robots of the largest surviving component gathered". A freshly parsed
	// Plan is consumed by exactly one simulation (its RNG streams advance
	// with the rounds); its cursor is carried by snapshots like a
	// scheduler's.
	Faults *fault.Plan
}

// Result summarizes a simulation.
type Result struct {
	// Gathered reports whether the swarm reached a 2×2 square.
	Gathered bool
	// Rounds is the number of FSYNC rounds executed.
	Rounds int
	// Merges is the total number of robots removed by merges.
	Merges int
	// RunsStarted is the number of run states created.
	RunsStarted int
	// Moves is the total number of robot hops performed.
	Moves int
	// InitialRobots and FinalRobots count the population.
	InitialRobots, FinalRobots int
	// Err is non-nil if the simulation aborted (disconnection, stuck, or
	// round limit).
	Err error
}

// Engine drives one swarm under one algorithm.
type Engine struct {
	cfg Config
	alg Algorithm
	w   *world.Dense

	round      int
	merges     int
	moves      int
	runsStart  int
	nextRunID  int
	lastMerge  int
	roundMerge int // merges in the most recent round

	// Fault state (all zero without Config.Faults). The crash marks
	// themselves live in the world, on the robots' stable slots.
	crashTrack    bool   // the plan has crash clauses
	crashesTotal  int    // robots ever crashed
	crashedLive   int    // crashed robots still occupying a cell
	roundCrash    int    // crashes in the most recent round
	degraded      bool   // a fault disconnected the swarm; latched
	degradedRound int    // round the degradation latched
	aliveBuf      []bool // scratch: liveness over the cell order

	// The gathered verdict, cached per world version and degradation
	// latch: under faults it is a walk over all cells or, once degraded,
	// a whole-swarm flood, and a session asks for it several times per
	// round.
	gathered gatheredVerdict

	// Quiescence state (quiesce.go; all zero when the fast path is off).
	qOn       bool
	qPeriod   int
	qComputed int // activations that ran Look+Compute
	qSkipped  int // activations replayed from the quiescent cache

	// Scratch structures reused across rounds. Each Step fills them from
	// scratch; nothing outside Step may retain references to them.
	view       *view.View     // the one view, repositioned at each computed robot
	active     []bool         // the scheduler's activation mask over the cell order; nil under FSYNC
	busy       []int32        // cell-order indexes of the robots that move or hold, keep or transfer runs
	acts       []actionAt     // the actions of the busy robots, indexed like busy
	runActs    []Action       // the actions that carry runs, in compute order
	deliver    []deliveredRun // the surviving senders' hand-offs, collection order until sorted
	runScratch [robot.MaxRuns + 2]robot.Run
	runnersBuf []grid.Point
}

// actionAt is a robot's computed action in 8 bytes; the robot is the one
// e.busy names at the same index. The move is an L∞ ≤ 1 step, stored as an
// int8 pair. An Action with its inline run arrays is about 300 bytes and
// few robots hold runs, so an action that keeps or transfers any is
// stored out of line in e.runActs: ext is 1 + its index there, and 0 for
// an action without runs.
type actionAt struct {
	dx, dy int8
	ext    int32
}

// move returns the action's move.
func (c *actionAt) move() grid.Point { return grid.Pt(int(c.dx), int(c.dy)) }

// quiescent reports whether the action is exactly the do-nothing Stay: no
// move, nothing kept, nothing transferred. The quiescence layer caches
// only these verdicts — any other action changes world state, so its
// robot must recompute every round regardless.
func (c *actionAt) quiescent() bool { return c.dx == 0 && c.dy == 0 && c.ext == 0 }

// runsOf returns the full action behind the k-th busy action, or nil if
// it carries no runs.
func (e *Engine) runsOf(k int) *Action {
	c := &e.acts[k]
	if c.ext == 0 {
		return nil
	}
	return &e.runActs[c.ext-1]
}

// deliveredRun is a run hand-off whose sender survived the round without
// merging, awaiting delivery: run states of merged robots stop (Table 1,
// condition 3), including states the robot was handing off in the very
// round it merged.
type deliveredRun struct {
	to  grid.Point // the recipient cell (pre-round coordinates)
	run robot.Run
}

// byRecipient orders hand-offs by recipient cell, then run ID, grouping
// per-recipient deliveries in deterministic ID order.
func byRecipient(a, b deliveredRun) int {
	if c := a.to.Compare(b.to); c != 0 {
		return c
	}
	return cmp.Compare(a.run.ID, b.run.ID)
}

// ErrDisconnected is returned when a round broke swarm connectivity.
type ErrDisconnected struct{ Round int }

func (e ErrDisconnected) Error() string {
	return fmt.Sprintf("fsync: swarm disconnected after round %d", e.Round)
}

// ErrStuck is returned when the watchdog sees no merge for too long.
type ErrStuck struct{ Round, SinceMerge int }

func (e ErrStuck) Error() string {
	return fmt.Sprintf("fsync: no merge for %d rounds (round %d)", e.SinceMerge, e.Round)
}

// ErrRoundLimit is returned when MaxRounds elapsed without gathering.
type ErrRoundLimit struct{ Rounds int }

func (e ErrRoundLimit) Error() string {
	return fmt.Sprintf("fsync: round limit %d reached before gathering", e.Rounds)
}

// New creates an engine simulating the given swarm (which it does not
// retain) under the given algorithm: NewOnWorld over a world built from
// the swarm's cells.
func New(s *swarm.Swarm, alg Algorithm, cfg Config) *Engine {
	return NewOnWorld(world.NewDense(s.Cells(), cfg.Scheduler != nil), alg, cfg)
}

// NewOnWorld creates an engine that drives w under the given algorithm. w
// must be fresh from world.NewDense, built with clocks exactly when
// cfg.Scheduler is set; the engine owns it from here on.
func NewOnWorld(w *world.Dense, alg Algorithm, cfg Config) *Engine {
	if cfg.MaxRounds < 0 {
		cfg.MaxRounds = 0 // reserved: negative means the same as "no limit"
	}
	e := &Engine{
		cfg:       cfg,
		alg:       alg,
		w:         w,
		nextRunID: 1,
	}
	e.initFaults()
	e.initQuiesce()
	e.initScratch()
	return e
}

// initScratch builds the engine's one view and sizes the busy lists for a
// round of up to 256 busy robots, so the first rounds of a small swarm do
// not grow them by doubling. Shared by New and NewRestored.
func (e *Engine) initScratch() {
	e.view = view.New(view.Config{Radius: e.alg.Radius(), Checked: e.cfg.StrictViews, Dense: e.w}, grid.Zero, e.round)
	k := min(e.w.Len(), 256)
	e.busy = make([]int32, 0, k)
	e.acts = make([]actionAt, 0, k)
}

// initFaults sets up crash-stop tracking when the configuration carries a
// fault plan with crash clauses. Shared by New and NewRestored (the
// restore path then sets the crash marks from the snapshot).
func (e *Engine) initFaults() {
	if e.cfg.Faults == nil || !e.cfg.Faults.HasCrashes() {
		return
	}
	e.crashTrack = true
	e.w.EnableCrashes()
}

// Swarm exposes the current occupancy as a freshly built swarm, so avoid
// calling it per round on hot paths (per-round readers should use World()).
func (e *Engine) Swarm() *swarm.Swarm { return swarm.New(e.w.Cells()...) }

// World exposes the engine's state (read-only by convention).
func (e *Engine) World() *world.Dense { return e.w }

// Round returns the number of completed rounds.
func (e *Engine) Round() int { return e.round }

// Merges returns the total robots removed so far.
func (e *Engine) Merges() int { return e.merges }

// RoundMerges returns the number of robots removed in the last round.
func (e *Engine) RoundMerges() int { return e.roundMerge }

// RunsStarted returns the number of run states created so far.
func (e *Engine) RunsStarted() int { return e.runsStart }

// Moves returns the total robot hops performed so far.
func (e *Engine) Moves() int { return e.moves }

// StateAt returns the state of the robot at p (zero state if free).
func (e *Engine) StateAt(p grid.Point) robot.State { return e.w.StateAt(p) }

// LocalRound returns the logical clock of the robot at p: the number of
// look-compute-move cycles it has completed. Under FSYNC (nil scheduler)
// every robot's clock equals Round().
func (e *Engine) LocalRound(p grid.Point) int {
	if e.cfg.Scheduler == nil {
		return e.round
	}
	return e.w.ClockAt(p)
}

// Runners returns the positions of all robots currently holding run
// states, in deterministic order. The returned slice is engine-owned
// scratch — read-only, valid until the next Runners or Step call — so the
// per-round stats/trace paths allocate nothing.
//
//gather:hotpath
func (e *Engine) Runners() []grid.Point {
	e.runnersBuf = e.runnersBuf[:0]
	slots := e.w.Slots()
	for i, p := range e.w.Cells() {
		if e.w.HasRuns(slots[i]) {
			e.runnersBuf = append(e.runnersBuf, p)
		}
	}
	return e.runnersBuf
}

// SetRound overrides the round counter (test scaffolding: starting at a
// round that is not a multiple of L suppresses run starts while planted
// run states are observed). Cached quiescent verdicts are dropped — the
// jump changes every robot's round phase out from under them.
func (e *Engine) SetRound(r int) {
	e.round = r
	e.w.QuiesceReset()
}

// SetState overrides the state of the robot at p (test scaffolding for
// constructing mid-run scenarios).
func (e *Engine) SetState(p grid.Point, st robot.State) {
	if !e.w.Has(p) {
		panic("fsync: SetState on free cell")
	}
	for i := range st.Runs {
		if st.Runs[i].ID == 0 {
			st.Runs[i].ID = e.nextRunID
			e.nextRunID++
		}
	}
	e.w.SetState(p, st)
}

// Crashes returns the number of robots that have crash-stopped so far.
func (e *Engine) Crashes() int { return e.crashesTotal }

// CrashedLive returns the number of crashed robots still occupying a cell
// (crashed robots vanish only when a live robot merges onto them).
func (e *Engine) CrashedLive() int { return e.crashedLive }

// RoundCrashes returns the number of robots that crashed in the last round.
func (e *Engine) RoundCrashes() int { return e.roundCrash }

// Degraded reports whether a fault disconnected the swarm and the engine
// latched graceful-degradation mode (only possible with Config.Faults).
func (e *Engine) Degraded() bool { return e.degraded }

// DegradedRound returns the round at which degradation latched (0 if not
// degraded).
func (e *Engine) DegradedRound() int { return e.degradedRound }

// gatheredVerdict is a gathered verdict and the world version and
// degradation latch it was computed under.
type gatheredVerdict struct {
	ok, val, degraded bool
	version           uint64
}

// Gathered reports whether the swarm has gathered. Without faults this is
// the paper's condition — all robots in a 2×2 square. With faults the
// condition is over the survivors: crashed robots are immovable scenery,
// so gathering means the live robots sit in a 2×2 square; and once a fault
// has disconnected the swarm (degraded mode), only the component holding
// the most survivors is asked to gather — the rest (stranded crashed
// robots, split-off minorities) is unreachable by a
// connectivity-preserving algorithm. The verdict is computed once per
// world version: every round's Commit and every direct occupancy or
// crash-mark write through World() advance it.
func (e *Engine) Gathered() bool {
	g := &e.gathered
	if v := e.w.Version(); !g.ok || g.version != v || g.degraded != e.degraded {
		*g = gatheredVerdict{ok: true, val: e.gatheredNow(), degraded: e.degraded, version: v}
	}
	return g.val
}

// gatheredNow computes the gathered verdict Gathered caches.
func (e *Engine) gatheredNow() bool {
	if e.cfg.Faults == nil {
		return e.w.Gathered()
	}
	if !e.degraded {
		if e.crashedLive == 0 {
			return e.w.Gathered()
		}
		return e.liveGathered()
	}
	live, lb := e.w.LargestLiveComponent()
	return live > 0 && lb.FitsIn2x2()
}

// liveGathered reports whether the live robots (over the whole, still
// connected swarm) fit in a 2×2 square. A swarm whose every robot crashed
// can never gather.
func (e *Engine) liveGathered() bool {
	slots := e.w.Slots()
	b := grid.EmptyRect
	live := 0
	for i, p := range e.w.Cells() {
		if e.w.Crashed(slots[i]) {
			continue
		}
		live++
		b = b.Include(p)
		if !b.FitsIn2x2() {
			return false
		}
	}
	return live > 0
}

// Step executes one round through the staged pipeline: Activate → Compute
// → Resolve → Commit. It returns an error if an invariant broke.
//
//gather:hotpath
func (e *Engine) Step() error {
	e.roundCrash = 0
	prevPop := e.w.Len()
	e.stageActivate()
	if err := e.stageCompute(); err != nil {
		return err
	}
	moved := e.stageResolve()
	e.w.Commit()

	removed := prevPop - e.w.Len()
	e.round++
	e.moves += moved
	e.merges += removed
	e.roundMerge = removed
	if removed > 0 || e.roundCrash > 0 {
		// Crashes count as watchdog progress: a mass crash legitimately
		// shrinks the population that still has to merge.
		e.lastMerge = e.round
	}

	if e.cfg.CheckConnectivity && !e.degraded {
		if !e.w.Connected() {
			if e.cfg.Faults == nil {
				return ErrDisconnected{Round: e.round}
			}
			// Graceful degradation: a faulty swarm is allowed to split.
			// From here on, gathering is asked of the largest surviving
			// component only, and the (now permanently false) global
			// connectivity check is skipped.
			e.degraded = true
			e.degradedRound = e.round
		}
	}
	if e.cfg.NoMergeLimit > 0 && e.round-e.lastMerge >= e.cfg.NoMergeLimit && !e.Gathered() {
		return ErrStuck{Round: e.round, SinceMerge: e.round - e.lastMerge}
	}
	return nil
}

// stageActivate decides who runs this round; everyone else sleeps. Under
// faults the stage first draws this round's crash decisions over the live
// population (in canonical cell order, so the coin stream is
// position-stable) and marks the crashed robots in the world: a crashed
// robot sleeps forever. A Scheduler then marks the robots it activates in
// e.active, a mask over the canonical cell order; under FSYNC e.active
// stays nil and every robot runs. A robot runs when the mask admits it and
// it carries no crash mark.
//
//gather:hotpath
func (e *Engine) stageActivate() {
	cells, slots := e.w.Cells(), e.w.Slots()
	n := len(cells)
	if e.crashTrack {
		if cap(e.aliveBuf) < n {
			e.aliveBuf = make([]bool, n)
		}
		alive := e.aliveBuf[:n]
		for i, s := range slots {
			alive[i] = !e.w.Crashed(s)
		}
		if c := e.cfg.Faults.DrawCrashes(e.round, alive); c > 0 {
			for i, s := range slots {
				if !alive[i] && !e.w.Crashed(s) {
					// Crashes draw before compute, so this round's views
					// already see the crash.
					e.w.Crash(cells[i])
				}
			}
			e.crashesTotal += c
			e.crashedLive += c
			e.roundCrash = c
		}
	}
	if e.cfg.Scheduler != nil {
		if cap(e.active) < n {
			e.active = make([]bool, n)
		}
		e.active = e.active[:n]
		clear(e.active)
		e.cfg.Scheduler.Activate(e.round, cells, slots, e.active)
	}
}

// stageCompute runs Look+Compute for every activated robot in canonical
// cell order, all against the same pre-round snapshot: nothing a view
// reads changes before Resolve. It walks the world's cell and slot arrays
// in place and passes over a robot that e.active leaves out or that
// carries a crash mark; such a sleeper draws no noise and ticks no clock.
// The robots whose action moves, keeps or transfers runs, or who hold runs
// now (which their cycle ends), are recorded in e.busy by cell-order index
// with their actions in e.acts; the actions that carry runs are appended
// to e.runActs. Every other robot stays with nothing to write, and Resolve
// never visits it. The engine's one view, repositioned at each computed
// robot, keeps the stage allocation-free; the robot's slot comes from the
// slot array, so the skip test, the view's Self, the clock tick and
// QuiesceNote read it without looking the robot's cell up again.
//
// Under a scheduler (e.active non-nil) the robot's view reports its
// logical clock, which then ticks: the cycle completes this round whatever
// the robot does.
//
// Under noise clauses each activation draws its flip from the fault plan
// here, one draw per activation in activation order. With quiescence on, a
// robot whose cell is clean and whose cached verdict for this round phase
// is "quiescent" replays Stay without building a view. A noise-flipped
// activation never skips and records no verdict: the perturbed view is not
// the cached one. Every other computed robot records its verdict at once:
// QuiesceNote consumes only the robot's own cell's dirty bit and its own
// slot's mask, which no other robot's skip test reads. A robot carrying
// runs is never quiescent: its runs age, glide or hand off this round.
//
//gather:hotpath
func (e *Engine) stageCompute() error {
	r, v := e.alg.Radius(), e.view
	noisy := e.cfg.Faults.HasNoise()
	// Locals, not fields or calls: the skip test runs once per robot.
	active, crashed := e.active, e.w.CrashMarks()
	slots := e.w.Slots()
	busy, acts, ra := e.busy[:0], e.acts[:0], e.runActs[:0]
	phase := 0 // the round phase the verdict masks are keyed by
	if e.qOn {
		phase = e.round % e.qPeriod
	}
	for i, p := range e.w.Cells() {
		slot, lr := slots[i], e.round
		if (active != nil && !active[i]) || (crashed != nil && crashed[slot]) {
			continue // asleep
		}
		if active != nil {
			lr = e.w.Clock(slot)
			e.w.TickClock(slot)
			if e.qOn {
				phase = lr % e.qPeriod
			}
		}
		var off grid.Point
		if noisy {
			off, _ = e.cfg.Faults.NoiseFlip(r)
		}
		clean := off == (grid.Point{})
		if e.qOn && clean && e.w.QuiesceSkip(p, slot, phase) {
			e.qSkipped++ // the cached quiescent action: Stay
			continue
		}
		v.RepositionSlot(p, slot, lr)
		if !clean {
			v.SetNoise(off)
		}
		a := e.alg.Compute(v)
		if a.Move.Linf() > 1 {
			return fmt.Errorf("fsync: robot at %v attempted move %v exceeding one cell", p, a.Move) //gather:alloc-ok abort path, the round is already lost
		}
		c := actionAt{dx: int8(a.Move.X), dy: int8(a.Move.Y)}
		if a.nKeep > 0 || a.nTransfers > 0 {
			ra = append(ra, a) //gather:alloc-ok length-reset per round, steady-state reuse
			c.ext = int32(len(ra))
		}
		holds := e.w.HasRuns(slot)
		if holds || !c.quiescent() {
			// Both lists are length-reset per round and reach the busiest
			// round's size within the first rounds.
			busy = append(busy, int32(i)) //gather:alloc-ok length-reset per round, steady-state reuse
			acts = append(acts, c)        //gather:alloc-ok length-reset per round, steady-state reuse
		}
		if e.qOn {
			e.qComputed++
			if clean {
				e.w.QuiesceNote(p, slot, phase, !holds && c.quiescent())
			}
		}
	}
	e.busy, e.acts, e.runActs = busy, acts, ra
	return nil
}

// stageResolve applies the round's moves and run changes through the
// world's round protocol and returns the number of robots that hopped.
// The first arrival at a cell in canonical activation order survives and
// any later one merges — run states of merged robots stop (Table 1,
// condition 3/6). A sole survivor keeps the runs its action keeps.
// Sleeping robots stand still, keeping their run states (frozen, not
// aged) and logical clocks; they still merge if an activated robot lands
// on their cell. Once every arrival is counted, the stage delivers the
// surviving transfers.
//
//gather:hotpath
func (e *Engine) stageResolve() int {
	moved := e.resolveArrivals()

	// Deliver transfers to robots occupying the target cells after moves.
	// Targets that merged this round do not accept states (the run was
	// interrupted by the merge); targets that are empty drop the state.
	// Per-target delivery runs in ascending run-ID order.
	slices.SortFunc(e.deliver, byRecipient)
	for i := 0; i < len(e.deliver); {
		to := e.deliver[i].to
		j := i
		for j < len(e.deliver) && e.deliver[j].to == to {
			j++
		}
		if e.w.ArrivalCount(to) == 1 {
			st := e.w.ArrivalState(to)
			rb := append(e.runScratch[:0], st.Runs...)
			for k := i; k < j; k++ {
				if len(rb) >= robot.MaxRuns {
					break
				}
				rb = append(rb, e.deliver[k].run)
			}
			e.w.SetArrivalState(to, robot.State{Runs: rb})
		}
		i = j
	}
	return moved
}

// resolveArrivals runs the round protocol for the busy robots: Arrive for
// each in canonical cell order (their runs end, movers leave), Land for
// the movers, then one pass over the run-carrying actions in the same
// order. Land has settled every robot's fate, so a sole survivor adopts
// the runs it keeps on the spot and its hand-offs are collected, while a
// robot that merged loses both (Table 1, condition 3). The collected
// hand-offs are adopted after the pass, so every keeper gets its run IDs,
// in cell order, before any transfer does. It returns the number of
// robots that hopped.
//
//gather:hotpath
func (e *Engine) resolveArrivals() int {
	// The pre-round cell order: Commit is the first to change it.
	cells := e.w.Cells()
	moved := 0
	for k, i := range e.busy {
		from := cells[i]
		dst := from.Add(e.acts[k].move())
		if dst != from {
			moved++
		}
		e.w.Arrive(from, dst)
	}
	// A merge onto a crashed sleeper removes it: the crash mark dies with
	// its slot (slots are never reused), and the cell now holds the live
	// mover.
	e.crashedLive -= e.w.Land(e.active)

	e.deliver = e.deliver[:0]
	for k, i := range e.busy {
		a := e.runsOf(k)
		if a == nil {
			continue
		}
		from := cells[i]
		dst := from.Add(e.acts[k].move())
		if e.w.ArrivalCount(dst) != 1 {
			continue
		}
		if a.nKeep > 0 {
			rb := e.runScratch[:0]
			for _, r := range a.Keep() {
				rb = append(rb, e.adoptRun(r))
			}
			e.w.SetArrivalState(dst, robot.State{Runs: rb})
		}
		for _, tr := range a.Transfers() {
			e.deliver = append(e.deliver, deliveredRun{to: from.Add(tr.To), run: tr.Run})
		}
	}
	for i := range e.deliver {
		e.deliver[i].run = e.adoptRun(e.deliver[i].run)
	}
	return moved
}

// adoptRun assigns an engine-unique ID to newly created runs and counts
// them.
//
//gather:hotpath
func (e *Engine) adoptRun(r robot.Run) robot.Run {
	if r.ID == 0 {
		r.ID = e.nextRunID
		e.nextRunID++
		e.runsStart++
	}
	return r
}

// Run simulates until the swarm gathers, an invariant breaks, or the round
// limit is hit.
func (e *Engine) Run() Result {
	res := Result{InitialRobots: e.w.Len()}
	for !e.Gathered() {
		if e.cfg.MaxRounds > 0 && e.round >= e.cfg.MaxRounds {
			res.Err = ErrRoundLimit{Rounds: e.round}
			break
		}
		if err := e.Step(); err != nil {
			res.Err = err
			break
		}
	}
	res.Gathered = e.Gathered()
	res.Rounds = e.round
	res.Merges = e.merges
	res.Moves = e.moves
	res.RunsStarted = e.runsStart
	res.FinalRobots = e.w.Len()
	return res
}
