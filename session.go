package gridgather

import (
	"context"
	"errors"
	"fmt"

	"gridgather/internal/fsync"
)

// ErrDone is returned by Step and StepN when the simulation has already
// finished successfully (the swarm is gathered) and there is nothing left
// to execute. An aborted simulation returns its abort error instead.
var ErrDone = errors.New("gridgather: simulation has finished")

// Simulation is a running gathering simulation: a session object that can
// be stepped incrementally, run to completion under a context, observed
// through typed events, and checkpointed to bytes that resume
// bit-identically. Create one with New or Restore.
//
// A Simulation is deterministic: the same input and structural options
// produce the identical round sequence across any number of
// checkpoint/restore cycles. It is not safe for concurrent
// use; drive it from one goroutine at a time.
type Simulation struct {
	eng *fsync.Engine

	// cfg is the session's configuration, its budget resolved at
	// construction (fairness-scaled from the initial population) and
	// carried verbatim through snapshots.
	cfg settings

	initial int   // initial robot count
	err     error // sticky abort error; nil while running or gathered

	// Event plumbing.
	subs       []subscription
	subIDs     []int
	subSeq     int
	emitting   bool // an emit is iterating subs: defer compaction
	roundRuns  int  // run states started in the most recent round
	robotsBuf  []Point
	runnersBuf []Point
}

// New creates a simulation session over the given connected swarm. The
// cells may come in any order, and a repeated cell is one robot; the input
// slice is not retained or modified. Setting up costs one sort of the
// cells and one flood over them (the connectivity check). With no options
// it simulates the paper's setting; see Option for the available knobs.
// The returned session has executed zero rounds: drive it with Step,
// StepN or Run.
//
// An input fails its first check in this order: ErrEmpty,
// ErrCoordinateRange, ErrNotConnected, then an option error.
func New(cells []Point, opts ...Option) (*Simulation, error) {
	pts, err := canonicalCells(cells)
	if err != nil {
		return nil, err
	}
	sim := &Simulation{initial: len(pts)}
	// The world's clocks follow the resolved scheduler, so the options are
	// resolved first; their error waits until the swarm passed its check.
	var sc scenario
	optErr := sim.cfg.apply(opts)
	if optErr == nil {
		if sc, optErr = sim.cfg.resolve(len(pts)); optErr != nil {
			optErr = fmt.Errorf("gridgather: %w", optErr)
		}
	}
	w, ok := floodWorld(pts, sc.scheduler != nil)
	if !ok {
		return nil, ErrNotConnected
	}
	if optErr != nil {
		return nil, optErr
	}
	budget := sc.budget.WithOverrides(sim.cfg.maxRounds, sim.cfg.noMergeLimit)
	sim.cfg.maxRounds, sim.cfg.noMergeLimit = budget.MaxRounds, budget.NoMergeLimit
	sim.eng = fsync.NewOnWorld(w, sc.alg, sim.cfg.engineConfig(sc))
	return sim, nil
}

// Step executes one round. It returns nil when a round was executed
// (including the round that gathers the swarm), ErrDone when the
// simulation had already gathered, and the abort error when the round
// limit is exceeded or an invariant breaks (disconnection, stuck
// watchdog). Abort errors are sticky: every later Step returns the same
// error. A context-cancelled Run does NOT mark the session aborted — a
// cancelled session steps onward normally.
func (s *Simulation) Step() error {
	if s.err != nil {
		return s.err
	}
	if s.eng.Gathered() {
		return ErrDone
	}
	if s.cfg.maxRounds > 0 && s.eng.Round() >= s.cfg.maxRounds {
		return s.abort(fsync.ErrRoundLimit{Rounds: s.eng.Round()})
	}
	runsBefore := s.eng.RunsStarted()
	err := s.eng.Step()
	s.roundRuns = s.eng.RunsStarted() - runsBefore
	if err != nil {
		return s.abort(err)
	}
	// Refresh the borrowed payload scratch only when an event that fires
	// this round actually has a listener — a session subscribed only to
	// gathered/abort events pays nothing per ordinary round.
	round := s.wants(EventRound)
	merge := s.eng.RoundMerges() > 0 && s.wants(EventMerge)
	runs := s.roundRuns > 0 && s.wants(EventRunStart)
	crash := s.eng.RoundCrashes() > 0 && s.wants(EventCrash)
	degraded := s.eng.Degraded() && s.eng.DegradedRound() == s.eng.Round() && s.wants(EventDegraded)
	gathered := s.wants(EventGathered) && s.eng.Gathered()
	if round || merge || runs || crash || degraded || gathered {
		s.fillEventBuffers()
		if round {
			s.emit(EventRound, nil)
		}
		if merge {
			s.emit(EventMerge, nil)
		}
		if runs {
			s.emit(EventRunStart, nil)
		}
		if crash {
			s.emit(EventCrash, nil)
		}
		if degraded {
			s.emit(EventDegraded, nil)
		}
		if gathered {
			s.emit(EventGathered, nil)
		}
	}
	return nil
}

// abort records the sticky abort error and notifies abort subscribers.
func (s *Simulation) abort(err error) error {
	s.err = err
	if s.wants(EventAbort) {
		s.fillEventBuffers()
		s.emit(EventAbort, err)
	}
	return err
}

// StepN executes up to k rounds and returns how many were executed. It
// stops early — with a nil error — when the swarm gathers, and with the
// abort error when the simulation aborts. Calling it on an already
// finished session returns (0, ErrDone) or (0, the abort error); k ≤ 0
// executes nothing and returns (0, nil).
func (s *Simulation) StepN(k int) (int, error) {
	if k <= 0 {
		return 0, nil
	}
	for n := 0; n < k; n++ {
		if err := s.Step(); err != nil {
			return n, err
		}
		if s.eng.Gathered() {
			// The round just executed gathered the swarm: a successful
			// stop, not an error.
			return n + 1, nil
		}
	}
	return k, nil
}

// Run executes rounds until the swarm gathers, the simulation aborts, or
// ctx is cancelled, and returns the result so far. Cancellation is checked
// between rounds: the returned Result carries the context's error, but the
// session itself stays healthy — it can Step onward or Run again with a
// fresh context, and a later uninterrupted continuation produces exactly
// the rounds an uncancelled run would have.
func (s *Simulation) Run(ctx context.Context) Result {
	for s.err == nil && !s.eng.Gathered() {
		if err := ctx.Err(); err != nil {
			res := s.Result()
			res.Err = err
			return res
		}
		if err := s.Step(); err != nil {
			break
		}
	}
	return s.Result()
}

// Status is a point-in-time view of a session's progress.
type Status struct {
	// Round is the number of completed rounds.
	Round int
	// Robots is the current population (occupied cells, crashed included).
	Robots int
	// Alive is the number of robots still executing their program; Crashed
	// counts the crash-stopped robots still occupying a cell. Without
	// WithFaults, Alive == Robots and Crashed == 0.
	Alive, Crashed int
	// Gathered reports whether the gathering condition currently holds
	// (all robots in a 2×2 square; under faults, the live robots — of the
	// largest surviving component once degraded).
	Gathered bool
	// Degraded reports whether a fault disconnected the swarm and the run
	// continues on the largest surviving component; DegradedRound is the
	// round that happened (0 otherwise).
	Degraded      bool
	DegradedRound int
	// QuiescentRatio is the fraction of activations so far whose Compute
	// call the quiescence fast path skipped (0 when the fast path is
	// disabled — see Metrics.QuiescentRatio — or before the first round).
	QuiescentRatio float64
	// Done reports whether the simulation has finished: gathered or
	// aborted. A done session never executes further rounds.
	Done bool
	// Reason is a stable label for the session's condition — one of the
	// Reason* constants. Aborts win over ReasonGathered, which wins over
	// ReasonDegraded. The strings are wire format (gatherd serializes them
	// verbatim); they never change meaning and new ones are only added.
	Reason string
	// Err is the abort error (nil unless the simulation aborted).
	Err error
}

// The Status.Reason vocabulary. These strings are a stable, documented
// enum: network clients (the gatherd wire format), the sweep CSV and any
// log scrapers may match on them verbatim. Existing values never change;
// a future condition adds a new constant instead of repurposing one.
// TestStatusReasonExhaustive pins statusReason to exactly this set.
const (
	// ReasonRunning labels a session still executing rounds (the empty
	// string, so a zero Status reads as running).
	ReasonRunning = ""
	// ReasonGathered labels a successfully finished session: all (live)
	// robots inside one 2×2 square.
	ReasonGathered = "gathered"
	// ReasonDegraded labels a running session that latched graceful
	// degradation after a fault disconnection (WithFaults) and is still
	// gathering the largest surviving component.
	ReasonDegraded = "degraded"
	// ReasonRoundLimit labels a session aborted by the round budget
	// (fsync.ErrRoundLimit; see WithMaxRounds).
	ReasonRoundLimit = "round-limit"
	// ReasonDisconnected labels a session aborted because a movement
	// disconnected the swarm (fsync.ErrDisconnected; fault-free runs with
	// WithConnectivityCheck).
	ReasonDisconnected = "disconnected"
	// ReasonStuck labels a session aborted by the no-merge watchdog
	// (fsync.ErrStuck; see WithNoMergeLimit).
	ReasonStuck = "stuck"
	// ReasonError labels a session aborted by any other error.
	ReasonError = "error"
)

// Status returns the session's current progress.
func (s *Simulation) Status() Status {
	gathered := s.eng.Gathered()
	st := Status{
		Round:          s.eng.Round(),
		Robots:         s.eng.World().Len(),
		Crashed:        s.eng.CrashedLive(),
		Gathered:       gathered,
		Degraded:       s.eng.Degraded(),
		DegradedRound:  s.eng.DegradedRound(),
		QuiescentRatio: s.eng.QuiesceStats().Ratio(),
		Done:           s.err != nil || gathered,
		Err:            s.err,
	}
	st.Alive = st.Robots - st.Crashed
	st.Reason = statusReason(s.err, gathered, st.Degraded)
	return st
}

// statusReason derives the Status.Reason label from the Reason* enum; see
// the constants block for the contract.
func statusReason(err error, gathered, degraded bool) string {
	switch err.(type) {
	case nil:
	case fsync.ErrRoundLimit:
		return ReasonRoundLimit
	case fsync.ErrDisconnected:
		return ReasonDisconnected
	case fsync.ErrStuck:
		return ReasonStuck
	default:
		return ReasonError
	}
	switch {
	case gathered:
		return ReasonGathered
	case degraded:
		return ReasonDegraded
	default:
		return ReasonRunning
	}
}

// Metrics are the live simulation counters.
type Metrics struct {
	// Rounds is the number of completed rounds.
	Rounds int
	// InitialRobots and Robots give the population at construction and now.
	InitialRobots, Robots int
	// Merges is the number of robots removed by merge operations.
	Merges int
	// RunsStarted counts the run states created (§3.2 reshapement).
	RunsStarted int
	// Moves counts individual robot hops.
	Moves int
	// Crashes counts the robots that crash-stopped so far (including
	// crashed robots later absorbed by a merge). 0 without WithFaults.
	Crashes int
	// QuiesceComputed and QuiesceSkipped count the activations whose
	// Compute ran versus were replayed from the quiescence verdict cache;
	// QuiescentRatio is Skipped/(Computed+Skipped). All zero when the fast
	// path is disabled (WithStrictLocality, or an algorithm without a
	// declared round period). Unlike every other counter these describe
	// the execution strategy, not the simulation: they are not snapshot
	// state, and a session restored mid-run counts from a cold cache.
	QuiesceComputed, QuiesceSkipped int
	QuiescentRatio                  float64
}

// Metrics returns the session's current counters.
func (s *Simulation) Metrics() Metrics {
	qs := s.eng.QuiesceStats()
	return Metrics{
		Rounds:          s.eng.Round(),
		InitialRobots:   s.initial,
		Robots:          s.eng.World().Len(),
		Merges:          s.eng.Merges(),
		RunsStarted:     s.eng.RunsStarted(),
		Moves:           s.eng.Moves(),
		Crashes:         s.eng.Crashes(),
		QuiesceComputed: qs.Computed,
		QuiesceSkipped:  qs.Skipped,
		QuiescentRatio:  qs.Ratio(),
	}
}

// Result assembles the session's state into the summary Run returns.
// It can be called at any time; on a still-running session it describes
// the rounds executed so far.
func (s *Simulation) Result() Result {
	return Result{
		Gathered:      s.eng.Gathered(),
		Rounds:        s.eng.Round(),
		Merges:        s.eng.Merges(),
		RunsStarted:   s.eng.RunsStarted(),
		Moves:         s.eng.Moves(),
		InitialRobots: s.initial,
		FinalRobots:   s.eng.World().Len(),
		Crashes:       s.eng.Crashes(),
		Degraded:      s.eng.Degraded(),
		Err:           s.err,
	}
}
