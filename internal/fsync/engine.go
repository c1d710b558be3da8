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
//	Activate  resolve the round's activation set (everyone under FSYNC; a
//	          scheduler's activation mask over the cell order otherwise)
//	Compute   Look+Compute for every activated robot against the
//	          immutable pre-round snapshot
//	Resolve   apply all moves in one pass in canonical cell order: merge
//	          resolution, run-state commits, logical clocks and transfer
//	          collection, then run adoption and transfer delivery
//	Commit    the world repairs the near-sorted arrival order into the
//	          canonical cell order and swaps the round in
//
// Every stage runs on the goroutine that calls Step. Compute writes each
// robot's action at the robot's index, so Resolve sees every action of the
// round before it moves anyone; Resolve and Commit are one linear pass over
// the arrivals.
//
// A Config.Scheduler (internal/sched) relaxes the synchrony: each round
// only the scheduler's activation subset runs a look-compute-move cycle
// (SSYNC subsets, ASYNC wavefronts) while the remaining robots sleep in
// place, keeping their positions and run states. Activated robots then see
// a per-robot logical clock (their own completed cycle count) instead of
// the global round counter, so local-clock-driven rules like the every-L-th
// round run-start schedule remain meaningful without global synchrony.
// Under the default FSYNC model the logical clocks coincide with the global
// round counter, and a nil Scheduler takes a fast path that is bit-identical
// to the explicit FSYNC scheduler (proved by the determinism tests).
//
//gather:deterministic
package fsync

import (
	"fmt"
	"sort"

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
	// Scheduler yields each round's activation set, generalizing the time
	// model to SSYNC/ASYNC (see internal/sched). nil means FSYNC — every
	// robot every round — via a fast path that skips the activation and
	// logical-clock bookkeeping entirely and is bit-identical to the
	// explicit sched.FSYNC() scheduler. Robots outside the activation set
	// sleep: they keep their position and run states unchanged (their runs
	// neither age nor glide) and can still receive transferred runs and be
	// merged onto. Budgets (MaxRounds, NoMergeLimit) should be scaled by
	// the scheduler's fairness bound; see DefaultBudget.Scale.
	Scheduler sched.Scheduler
	// Faults, when non-nil, injects deterministic crash-stop and
	// sensor-noise faults (see internal/fault). A crashed robot freezes
	// forever: it stays an occupied, mergeable-onto cell, excluded from
	// every activation set, its runs frozen. Faults also switch the engine
	// to graceful degradation: a disconnection no longer aborts the run —
	// it latches degraded mode, where Gathered() means "the live robots of
	// the largest surviving component gathered". A freshly parsed Plan is
	// consumed by exactly one simulation (its RNG streams advance with the
	// rounds); its cursor is carried by snapshots like a scheduler's.
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
	crashTrack    bool         // the plan has crash clauses
	crashesTotal  int          // robots ever crashed
	crashedLive   int          // crashed robots still occupying a cell
	roundCrash    int          // crashes in the most recent round
	degraded      bool         // a fault disconnected the swarm; latched
	degradedRound int          // round the degradation latched
	flips         []grid.Point // per-activation noise offsets, indexed like order
	aliveBuf      []bool       // scratch: liveness over the cell order

	// The gathered verdict, cached per world version and degradation
	// latch: under faults it is a walk over all cells or, once degraded,
	// a whole-swarm flood, and a session asks for it several times per
	// round.
	gathered gatheredVerdict

	// Quiescence state (quiesce.go; all zero when the fast path is off).
	// qFlags parallels acts/order: Compute writes one byte per robot, the
	// post-pass reads them all.
	qOn       bool
	qPeriod   int
	qFlags    []uint8
	qComputed int // activations that ran Look+Compute
	qSkipped  int // activations replayed from the quiescent cache

	// Scratch structures reused across rounds. Each Step fills them from
	// scratch; nothing outside Step may retain references to them.
	order        []grid.Point      // this round's activation set
	orderSlots   []int32           // the world slots of order's robots, indexed like order
	sleep        []grid.Point      // robots outside the activation set
	mask         []bool            // scheduler activation mask over the cell order
	acts         []actionAt        // actions indexed like order
	runActs      []Action          // the actions that carry runs, in compute order
	freshKeeps   []grid.Point      // cells of brand-new kept runs, collection order
	transferList []pendingTransfer // pending hand-offs, collection order
	deliver      deliverSlice
	runScratch   [robot.MaxRuns + 2]robot.Run
	runnersBuf   []grid.Point
}

// actionAt is a robot's computed action in 8 bytes; the robot is the one
// at the same index of e.order. The move is an L∞ ≤ 1 step, stored as an
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

// runsOf returns the full action behind the action of robot i, or nil if
// it carries no runs.
func (e *Engine) runsOf(i int) *Action {
	c := &e.acts[i]
	if c.ext == 0 {
		return nil
	}
	return &e.runActs[c.ext-1]
}

// pendingTransfer is a run hand-off collected during the Resolve stage. It
// is delivered only if the sender survives the round without merging: run
// states of merged robots stop (Table 1, condition 3), including states
// the robot was handing off in the very round it merged.
type pendingTransfer struct {
	senderDst grid.Point // the sender's post-move cell; its occupancy decides the sender's fate
	to        grid.Point // the recipient cell (pre-round coordinates)
	run       robot.Run
}

// deliveredRun is a surviving, adopted hand-off awaiting delivery.
type deliveredRun struct {
	to  grid.Point
	run robot.Run
}

// deliverSlice sorts surviving hand-offs by recipient cell, then run ID —
// grouping per-recipient deliveries in deterministic ID order. Pointer
// receivers keep the sort.Sort call allocation-free.
type deliverSlice []deliveredRun

func (d *deliverSlice) Len() int { return len(*d) }

func (d *deliverSlice) Swap(i, j int) { s := *d; s[i], s[j] = s[j], s[i] }

func (d *deliverSlice) Less(i, j int) bool {
	s := *d
	if s[i].to != s[j].to {
		return s[i].to.Less(s[j].to)
	}
	return s[i].run.ID < s[j].run.ID
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
// retain) under the given algorithm.
func New(s *swarm.Swarm, alg Algorithm, cfg Config) *Engine {
	if cfg.MaxRounds < 0 {
		cfg.MaxRounds = 0 // reserved: negative means the same as "no limit"
	}
	e := &Engine{
		cfg:       cfg,
		alg:       alg,
		w:         world.NewDense(s.Cells(), cfg.Scheduler != nil),
		nextRunID: 1,
	}
	e.initFaults()
	e.initQuiesce()
	return e
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
func (e *Engine) LocalRound(p grid.Point) int { return e.localRound(p) }

// localRound resolves the round number a robot's view reports: the global
// round under FSYNC, the robot's own logical clock under a scheduler.
func (e *Engine) localRound(p grid.Point) int {
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
	for _, p := range e.w.Cells() {
		if e.w.StateAt(p).HasRuns() {
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

// viewConfig builds the view accessor bundle against current state: views
// read the tiled bitset directly (no closures, no hashing).
func (e *Engine) viewConfig() view.Config {
	return view.Config{
		Radius:  e.alg.Radius(),
		Checked: e.cfg.StrictViews,
		Dense:   e.w,
	}
}

// computeRange runs Look+Compute for the robots e.order[lo:hi), writing
// each action to e.acts at the robot's index and appending the actions
// that carry runs to e.runActs. One reusable view per call keeps the phase
// allocation-free.
//
// With quiescence on, robots whose cell is clean and whose cached verdict
// for this round phase is "quiescent" replay Stay without building a view
// (QuiesceSkip reads only pre-round state); noise-flipped activations never
// skip — the perturbed view is not the cached one. Each robot's skip/noisy
// disposition lands in e.qFlags for the post-pass.
//
// The robot's slot comes from e.orderSlots, so the skip test, the view's
// Self and the post-pass's QuiesceNote read it without looking the robot's
// cell up again.
//
//gather:hotpath
func (e *Engine) computeRange(vc view.Config, lo, hi int) error {
	v := view.New(vc, grid.Zero, e.round)
	ra := e.runActs
	flips := e.flips
	q := e.qOn
	for i := lo; i < hi; i++ {
		p, slot := e.order[i], e.orderSlots[i]
		lr := e.localRound(p)
		var off grid.Point
		if len(flips) != 0 {
			off = flips[i]
		}
		if q && off == (grid.Point{}) && e.w.QuiesceSkip(p, slot, lr%e.qPeriod) {
			e.acts[i] = actionAt{} // the cached quiescent action: Stay
			e.qFlags[i] = qfSkip
			continue
		}
		v.RepositionSlot(p, slot, lr)
		if off != (grid.Point{}) {
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
		e.acts[i] = c
		if q {
			f := uint8(0)
			if off != (grid.Point{}) {
				f = qfNoisy
			}
			e.qFlags[i] = f
		}
	}
	e.runActs = ra
	return nil
}

// Step executes one round through the staged pipeline: Activate → Compute
// → Resolve → Commit. It returns an error if an invariant broke.
//
//gather:hotpath
func (e *Engine) Step() error {
	scheduled := e.cfg.Scheduler != nil
	e.roundCrash = 0
	e.stageActivate(scheduled)
	e.drawNoise()
	prevPop := len(e.order) + len(e.sleep)
	if err := e.stageCompute(); err != nil {
		return err
	}
	moved := e.stageResolve(scheduled)
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

// stageActivate fills e.order (this round's activation set) and e.sleep
// (everyone else), both in canonical cell order. Under FSYNC every robot
// runs a full look-compute-move cycle every round. Under faults the stage
// first draws this round's crash decisions over the live population (in
// canonical cell order, so the coin stream is position-stable); a crashed
// robot sleeps forever. A Scheduler then marks the robots it activates in
// a mask over the cell order, and only robots both marked and alive run.
//
//gather:hotpath
func (e *Engine) stageActivate(scheduled bool) {
	cells := e.w.Cells()
	e.sleep = e.sleep[:0]
	if !scheduled && !e.crashTrack {
		// Everyone activates in cell order: alias the world's cell and
		// slot views, which stay valid until Commit, after Resolve's last
		// read. The
		// scheduler and the crash plan are fixed for an engine's lifetime,
		// so the appending path below never sees the alias.
		e.order, e.orderSlots = cells, e.w.Slots()
		return
	}
	e.order = e.order[:0]
	e.orderSlots = e.orderSlots[:0]
	slots := e.w.Slots()
	n := len(cells)
	var alive, mask []bool
	if e.crashTrack {
		if cap(e.aliveBuf) < n {
			e.aliveBuf = make([]bool, n)
		}
		alive = e.aliveBuf[:n]
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
	if scheduled {
		if cap(e.mask) < n {
			e.mask = make([]bool, n)
		}
		mask = e.mask[:n]
		clear(mask)
		e.cfg.Scheduler.Activate(e.round, cells, slots, mask)
	}
	for i, p := range cells {
		if (mask == nil || mask[i]) && (alive == nil || alive[i]) {
			e.order = append(e.order, p)
			e.orderSlots = append(e.orderSlots, slots[i])
		} else {
			e.sleep = append(e.sleep, p)
		}
	}
}

// drawNoise draws one view-noise flip per activated robot, in activation
// order. e.flips parallels e.order; a zero offset means "no flip this
// activation". Without noise clauses the flip list stays empty and the
// compute stage skips the lookup entirely.
//
//gather:hotpath
func (e *Engine) drawNoise() {
	if !e.cfg.Faults.HasNoise() {
		e.flips = e.flips[:0]
		return
	}
	n := len(e.order)
	if cap(e.flips) < n {
		e.flips = make([]grid.Point, n)
	}
	e.flips = e.flips[:n]
	r := e.alg.Radius()
	for i := range e.flips {
		e.flips[i], _ = e.cfg.Faults.NoiseFlip(r)
	}
}

// stageCompute runs Look+Compute for every activated robot, all from the
// same snapshot. The pre-round state is immutable during this stage, so no
// cloning is required: each action lands at its robot's index of e.acts.
//
//gather:hotpath
func (e *Engine) stageCompute() error {
	n := len(e.order)
	if cap(e.acts) < n {
		e.acts = make([]actionAt, n)
	}
	e.acts = e.acts[:n]
	e.runActs = e.runActs[:0]
	if e.qOn {
		// One disposition byte per activation; computeRange writes every
		// index (skip and compute alike), so no clearing is needed.
		if cap(e.qFlags) < n {
			e.qFlags = make([]uint8, n)
		}
		e.qFlags = e.qFlags[:n]
	}
	if err := e.computeRange(e.viewConfig(), 0, n); err != nil {
		return err
	}
	e.quiescePost()
	return nil
}

// stageResolve applies all moves through the world's arrival protocol and
// returns the number of robots that hopped. The first arrival at a cell is
// the provisional survivor and keeps its runs; any later arrival is a
// merge — run states of merged robots stop (Table 1, condition 3/6).
// Sleeping robots stand still, keeping their run states (frozen, not aged)
// and logical clocks; they still merge if an activated robot lands on
// their cell. Once every arrival is counted, the stage adopts the
// surviving kept runs and delivers the surviving transfers.
//
//gather:hotpath
func (e *Engine) stageResolve(scheduled bool) int {
	e.w.BeginRound()
	moved := e.resolveArrivals(scheduled)

	// Adopt brand-new kept runs now that every robot's fate is known: a
	// robot that kept a fresh run but was merged onto this round never
	// started it (Table 1, condition 3 — the merge clears its pending
	// state), so only surviving keepers get IDs and RunsStarted credit.
	for _, dst := range e.freshKeeps {
		if e.w.ArrivalCount(dst) != 1 {
			continue
		}
		st := e.w.ArrivalState(dst)
		rb := e.runScratch[:0]
		for _, r := range st.Runs {
			rb = append(rb, e.adoptRun(r))
		}
		e.w.SetArrivalState(dst, robot.State{Runs: rb})
	}

	// Resolve the collected hand-offs now that every robot's fate is known:
	// a sender that merged this round loses all its runs (Table 1,
	// condition 3), so its hand-offs die with it. Surviving transfers are
	// adopted in collection order, keeping run IDs deterministic.
	e.deliver = e.deliver[:0]
	for _, t := range e.transferList {
		if e.w.ArrivalCount(t.senderDst) != 1 {
			continue
		}
		e.deliver = append(e.deliver, deliveredRun{to: t.to, run: e.adoptRun(t.run)})
	}

	// Deliver transfers to robots occupying the target cells after moves.
	// Targets that merged this round do not accept states (the run was
	// interrupted by the merge); targets that are empty drop the state.
	// Per-target delivery runs in ascending run-ID order.
	sort.Sort(&e.deliver)
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

// resolveArrivals replays the arrival protocol for every robot — the
// activated ones in canonical cell order, then the sleepers — collecting
// brand-new kept runs and pending transfers in that order, and returns the
// number of robots that hopped.
//
//gather:hotpath
func (e *Engine) resolveArrivals(scheduled bool) int {
	moved := 0
	e.freshKeeps = e.freshKeeps[:0]
	e.transferList = e.transferList[:0]
	for i := range e.acts {
		from := e.order[i]
		dst := from.Add(e.acts[i].move())
		a := e.runsOf(i)
		if dst != from {
			moved++
		}
		var cl int
		if scheduled {
			// The cycle completes: the robot's logical clock ticks. A
			// merged cell keeps the largest arriving clock (deterministic
			// regardless of arrival order).
			cl = e.w.ClockAt(from) + 1
		}
		if e.w.Arrive(from, dst) == 1 {
			// Arrive dropped the robot's runs; only a robot that keeps
			// some writes a state.
			var keep []robot.Run
			if a != nil && a.nKeep > 0 {
				keep = a.Keep()
				e.w.SetArrivalState(dst, robot.State{Runs: keep})
			}
			for _, r := range keep {
				if r.ID == 0 {
					// Brand-new kept run: adoption (ID, RunsStarted) waits
					// until the keeper's merge fate is known, like the
					// transfer hand-offs below.
					e.freshKeeps = append(e.freshKeeps, dst)
					break
				}
			}
		}
		if scheduled {
			e.w.RaiseClock(dst, cl)
		}
		if a == nil {
			continue
		}
		for _, tr := range a.Transfers() {
			// Collected, not yet delivered: whether the hand-off succeeds
			// depends on the sender not merging this round, which is known
			// only after all arrivals are counted.
			e.transferList = append(e.transferList, pendingTransfer{
				senderDst: dst,
				to:        from.Add(tr.To),
				run:       tr.Run,
			})
		}
	}
	e.w.BeginSleep()
	for _, p := range e.sleep {
		var cl int
		if scheduled {
			cl = e.w.ClockAt(p)
		}
		cnt := e.w.Sleep(p)
		if e.crashTrack && cnt > 1 && e.w.Crashed(e.w.SlotAt(p)) {
			// A live robot merged onto a crashed sleeper: the crash mark
			// dies with the sleeper's slot (slots are never reused), and
			// the cell now holds the live first-arriver. Activated arrivals
			// run before sleepers, so the count here is the cell's final
			// verdict.
			e.crashedLive--
		}
		if scheduled {
			e.w.RaiseClock(p, cl)
		}
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
