package gridgather

import (
	"fmt"
	"strings"

	"gridgather/internal/baseline/asyncseq"
	"gridgather/internal/core"
	"gridgather/internal/fault"
	"gridgather/internal/fsync"
	"gridgather/internal/sched"
)

// An Option configures a Simulation at construction. The zero
// configuration (no options) is the paper's setting: radius 20, L = 22,
// FSYNC, the paper's algorithm and the canonical simulation budget. Every
// round runs on the goroutine that calls Step or Run.
//
// Options divide into two classes. Structural options (WithRadius, WithL,
// WithScheduler, WithSchedulerSeed, WithAlgorithm, WithFaults) define what
// is being simulated; they are baked into snapshots and rejected by Restore.
// Execution options (WithMaxRounds, WithNoMergeLimit,
// WithConnectivityCheck, WithStrictLocality) only control how the
// simulation is driven and may be changed freely on Restore.
type Option func(*settings) error

// settings is a session's configuration: the record New builds from
// options and a snapshot carries, with the budget resolved at
// construction. Restore decodes it from the snapshot header and applies
// the caller's options on top.
type settings struct {
	radius, l     int
	scheduler     string
	schedulerSeed int64
	algorithm     string
	faults        string
	maxRounds     int
	noMergeLimit  int
	checkConn     bool
	strict        bool

	// structural lists the structural options that were applied, so
	// Restore can reject attempts to reshape a checkpointed simulation.
	structural []string
}

func (s *settings) apply(opts []Option) error {
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return err
		}
	}
	return nil
}

func structural(name string, f func(*settings)) Option {
	return func(s *settings) error {
		f(s)
		s.structural = append(s.structural, name)
		return nil
	}
}

// WithRadius sets the viewing radius (L1). 0 selects the paper's value 20.
// Structural: rejected by Restore.
func WithRadius(r int) Option {
	return structural("WithRadius", func(s *settings) { s.radius = r })
}

// WithL sets the run-start period of §3.2. 0 selects the paper's value 22.
// Structural: rejected by Restore.
func WithL(l int) Option {
	return structural("WithL", func(s *settings) { s.l = l })
}

// WithScheduler selects the time model by spec: "" or "fsync" (the paper's
// fully synchronous model, default), "ssync"/"ssync-rr:k" (round-robin
// subsets), "ssync-rand:k" (random subsets), "ssync-lazy:k" (lazy
// adversarial subsets), "async:w" (a sequential wavefront of width w). The
// paper's algorithm is proved for FSYNC only — pair relaxed schedulers
// with WithAlgorithm("greedy") for runs that are safe under every
// scheduler. Structural: rejected by Restore.
func WithScheduler(spec string) Option {
	return structural("WithScheduler", func(s *settings) { s.scheduler = spec })
}

// WithSchedulerSeed seeds the randomized schedulers (ssync-rand,
// ssync-lazy); 0 means 1. Deterministic schedulers ignore it. Structural:
// rejected by Restore.
func WithSchedulerSeed(seed int64) Option {
	return structural("WithSchedulerSeed", func(s *settings) { s.schedulerSeed = seed })
}

// WithAlgorithm selects the robot program: "" or "paper" (the paper's
// algorithm, default) or "greedy" (the scheduler-robust local strategy; it
// ignores radius and L). Structural: rejected by Restore.
func WithAlgorithm(name string) Option {
	return structural("WithAlgorithm", func(s *settings) { s.algorithm = name })
}

// WithFaults injects deterministic faults by spec: "+"-joined clauses of
// "crash:p=<prob>" (each robot crash-stops with probability p per round),
// "crash-at:r=<round>,k=<count>" (a one-shot mass crash), and
// "noise:p=<prob>" (each activation's view gets one flipped cell with
// probability p); each clause takes an optional "@seed" pinning its RNG
// stream independently of the scheduler seed. "" (default), "off" and
// "none" run fault-free. A crashed robot freezes forever as an occupied,
// mergeable-onto cell, and faults switch the run to graceful degradation:
// a disconnection no longer aborts — gathering is then asked of the
// survivors in the component holding the most live robots, observable via
// EventDegraded and Status. Degradation piggybacks on the connectivity
// check, so enable WithConnectivityCheck to observe disconnections; with
// the check off, a run split by faults ends at the no-merge watchdog
// instead. Structural: baked into snapshots, rejected by Restore.
func WithFaults(spec string) Option {
	return structural("WithFaults", func(s *settings) { s.faults = spec })
}

// WithMaxRounds sets the hard round limit after which the simulation
// aborts with ErrRoundLimit. 0 selects the canonical budget 80·n + 1000
// scaled by the scheduler's fairness bound; negative values are rejected
// with ErrNegativeMaxRounds.
func WithMaxRounds(n int) Option {
	return func(s *settings) error {
		if n < 0 {
			return ErrNegativeMaxRounds
		}
		s.maxRounds = n
		return nil
	}
}

// WithNoMergeLimit sets the stuck watchdog: the simulation aborts when
// this many consecutive rounds pass without a merge. 0 selects the
// canonical window 40·n + 500 (scaled like WithMaxRounds); negative
// disables the watchdog.
func WithNoMergeLimit(n int) Option {
	return func(s *settings) error {
		s.noMergeLimit = n
		return nil
	}
}

// WithConnectivityCheck toggles validating swarm connectivity after every
// round (the paper's central safety property; a violation aborts the
// simulation).
func WithConnectivityCheck(on bool) Option {
	return func(s *settings) error {
		s.checkConn = on
		return nil
	}
}

// WithStrictLocality makes the simulation panic if the algorithm reads any
// cell outside the viewing radius (a proof of locality; small overhead).
func WithStrictLocality(on bool) Option {
	return func(s *settings) error {
		s.strict = on
		return nil
	}
}

// WithWorkers does nothing and never fails: every round runs on the
// goroutine that calls Step or Run.
//
// Deprecated: kept only because perfbench calls it; ROADMAP item 13
// deletes it.
func WithWorkers(int) Option {
	return func(*settings) error { return nil }
}

// rejectStructural reports an error if any structural option was applied —
// Restore resumes exactly the simulation that was checkpointed and refuses
// to reshape it.
func (s *settings) rejectStructural() error {
	if len(s.structural) == 0 {
		return nil
	}
	return fmt.Errorf("gridgather: option %s is structural and cannot be changed on Restore (the snapshot defines it)", s.structural[0])
}

// scenario is what a configuration resolves to for one instance.
type scenario struct {
	alg fsync.Algorithm
	// scheduler is the engine's time model; nil means FSYNC and keeps the
	// engine's fast path.
	scheduler sched.Scheduler
	// faults is the fault-injection plan; nil means a clean, fault-free
	// run and keeps every engine fast path.
	faults *fault.Plan
	// budget is the canonical simulation budget scaled by the scheduler's
	// fairness bound. Apply caller overrides with Budget.WithOverrides.
	budget fsync.Budget
}

// resolve builds the scenario of an n-robot instance: the robot program
// ("" or "paper" for the paper's algorithm with the configured radius and
// L, "greedy" for the scheduler-robust strategy, which ignores both), the
// time model (a sched.Parse spec), the fault plan (a fault.Parse spec)
// and the canonical budget. The scheduler seed feeds the randomized
// schedulers and unseeded fault clauses, with seed 0 normalized to 1
// here — the single place that rule lives, so New and Restore cannot
// drift on it.
func (c *settings) resolve(n int) (scenario, error) {
	params := core.WithConstants(c.radius, c.l)
	if err := params.Validate(); err != nil {
		return scenario{}, err
	}
	seed := c.schedulerSeed
	if seed == 0 {
		seed = 1
	}
	sch, err := sched.Parse(c.scheduler, seed)
	if err != nil {
		return scenario{}, err
	}
	var out scenario
	switch c.algorithm {
	case "", "paper":
		out.alg = core.NewGatherer(params)
	case "greedy":
		out.alg = asyncseq.Algorithm{}
	default:
		return scenario{}, fmt.Errorf("unknown algorithm %q (have %s)",
			c.algorithm, strings.Join(Algorithms(), ", "))
	}
	if out.faults, err = fault.Parse(c.faults, seed); err != nil {
		return scenario{}, err
	}
	out.budget = fsync.DefaultBudget(n).Scale(sch.Fairness(n))
	if !sched.IsFSYNC(sch) {
		out.scheduler = sch
	}
	return out, nil
}

// engineConfig assembles the engine configuration from the resolved
// settings. The round limit stays with the session (the engine's Step has
// no budget); the stuck watchdog and safety checks run inside the engine.
func (c *settings) engineConfig(sc scenario) fsync.Config {
	return fsync.Config{
		NoMergeLimit:      c.noMergeLimit,
		CheckConnectivity: c.checkConn,
		StrictViews:       c.strict,
		Scheduler:         sc.scheduler,
		Faults:            sc.faults,
	}
}
