// Package sweep is the concurrent experiment-sweep subsystem: it expands a
// grid of (workload family × swarm size × parameter set × scheduler ×
// fault plan × algorithm × seed) into simulation jobs, fans the jobs out
// across goroutines, and aggregates the per-run metrics (rounds, rounds/n,
// merges, moves, with mean/min/max and percentiles) into machine-readable
// (JSON, CSV) or human-readable (table) reports.
//
// The scheduler axis (internal/sched) sweeps the time model: FSYNC is the
// paper's setting; SSYNC and ASYNC specs measure how the algorithms behave
// under relaxed synchrony. The algorithm axis pairs with it: "paper" is the
// reproduction (proved for FSYNC only — under relaxed schedulers its merge
// operations can disconnect the swarm, which the sweep records as
// failures), "greedy" is the scheduler-robust strategy of
// internal/baseline/asyncseq that stays safe under every scheduler.
//
// Runner.Concurrency controls how many simulations run at once; each one
// runs on its own goroutine. Every individual simulation is fully
// deterministic, so sweep outputs are reproducible run to run.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"gridgather"
	"gridgather/internal/core"
	"gridgather/internal/fault"
	"gridgather/internal/gen"
	"gridgather/internal/sched"
	"gridgather/internal/swarm"
)

// Job is one simulation instance: a workload built at a size and seed,
// gathered under one parameter set.
type Job struct {
	// Workload is the family name (see gen.SeededCatalog).
	Workload string `json:"workload"`
	// N is the requested robot count (generators approximate it).
	N int `json:"n"`
	// Seed seeds randomized families; deterministic families ignore it.
	Seed int64 `json:"seed"`
	// Params are the algorithm constants for this run.
	Params core.Params `json:"params"`
	// Scheduler is the time-model spec (sched.Parse grammar); empty means
	// "fsync". Randomized schedulers are seeded from Seed.
	Scheduler string `json:"scheduler,omitempty"`
	// Algorithm names the robot program: "paper" (default, empty) or
	// "greedy" (the scheduler-robust strategy; ignores Params).
	Algorithm string `json:"algorithm,omitempty"`
	// Faults is the fault-injection spec (fault.Parse grammar); empty runs
	// fault-free. Clauses without an explicit "@seed" draw from Seed.
	Faults string `json:"faults,omitempty"`
	// MaxRounds aborts the run after this many rounds; 0 means the
	// canonical budget (fsync.DefaultBudget scaled by the scheduler's
	// fairness bound); negative values are rejected.
	MaxRounds int `json:"max_rounds,omitempty"`
	// NoMergeLimit is the stuck-watchdog window; 0 means the canonical
	// budget (scaled like MaxRounds), negative disables the watchdog.
	NoMergeLimit int `json:"no_merge_limit,omitempty"`
}

// Result is the outcome of one job, flattened for serialization.
type Result struct {
	// Job echoes the job that produced this result.
	Job Job `json:"job"`
	// Robots is the actual initial robot count of the built instance.
	Robots int `json:"robots"`
	// FinalRobots is the population after gathering.
	FinalRobots int `json:"final_robots"`
	// Gathered reports whether the swarm reached a 2×2 square.
	Gathered bool `json:"gathered"`
	// Rounds is the number of FSYNC rounds executed.
	Rounds int `json:"rounds"`
	// RoundsPerN is Rounds divided by Robots — the paper's O(n) claim
	// says this ratio is bounded by a constant.
	RoundsPerN float64 `json:"rounds_per_n"`
	// Merges counts robots removed by merges.
	Merges int `json:"merges"`
	// Moves counts individual robot hops.
	Moves int `json:"moves"`
	// RunsStarted counts the §3.2 run states created.
	RunsStarted int `json:"runs_started"`
	// Crashes counts the robots that crash-stopped (Job.Faults; 0 in a
	// clean run) and Degraded reports whether a fault disconnected the
	// swarm and the run continued on the largest surviving component.
	Crashes  int  `json:"crashes,omitempty"`
	Degraded bool `json:"degraded,omitempty"`
	// QuiescentRatio is the fraction of activations the engine's quiescence
	// fast path replayed from cache instead of recomputing (0 when the fast
	// path is disabled for the run's configuration).
	QuiescentRatio float64 `json:"quiescent_ratio,omitempty"`
	// Err is the abort reason, empty on success.
	Err string `json:"err,omitempty"`
	// Duration is the wall-clock simulation time.
	Duration time.Duration `json:"duration_ns"`
}

// RunOne executes a single job synchronously by driving a public
// gridgather session end to end — the sweep harness consumes the same
// Simulation surface every other caller does, so the two cannot drift on
// budgets, seeds or scenario resolution. It is the primitive the Runner
// fans out, and also what the experiment harness (internal/exp) uses for
// its one-off instances.
//
// Job.Params contributes its (Radius, L) pair; the dependent constants are
// re-derived through core.WithConstants, which is where every parameter
// set in this codebase comes from (see the WithConstants doc).
func RunOne(job Job) Result {
	out := Result{Job: job}
	family, err := lookup(job.Workload)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	if err := job.Params.Validate(); err != nil {
		out.Err = err.Error()
		return out
	}
	if job.MaxRounds < 0 {
		out.Err = fmt.Sprintf("sweep: negative MaxRounds %d (0 selects the default budget)", job.MaxRounds)
		return out
	}
	s := family.Build(job.N, job.Seed)
	sim, err := gridgather.New(toPoints(s),
		gridgather.WithRadius(job.Params.Radius),
		gridgather.WithL(job.Params.L),
		gridgather.WithScheduler(job.Scheduler),
		gridgather.WithSchedulerSeed(job.Seed),
		gridgather.WithAlgorithm(job.Algorithm),
		gridgather.WithFaults(job.Faults),
		gridgather.WithMaxRounds(job.MaxRounds),
		gridgather.WithNoMergeLimit(job.NoMergeLimit),
	)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	// Duration measures the simulation itself — session construction
	// (swarm validation, scenario resolution) stays outside the timer.
	start := time.Now()
	res := sim.Run(context.Background())
	out.Duration = time.Since(start)
	out.Robots = res.InitialRobots
	out.FinalRobots = res.FinalRobots
	out.Gathered = res.Gathered
	out.Rounds = res.Rounds
	out.Merges = res.Merges
	out.Moves = res.Moves
	out.RunsStarted = res.RunsStarted
	out.Crashes = res.Crashes
	out.Degraded = res.Degraded
	out.QuiescentRatio = sim.Metrics().QuiescentRatio
	if res.InitialRobots > 0 {
		out.RoundsPerN = float64(res.Rounds) / float64(res.InitialRobots)
	}
	if res.Err != nil {
		out.Err = res.Err.Error()
	}
	return out
}

// toPoints converts a built swarm into the public API's point slice.
func toPoints(s *swarm.Swarm) []gridgather.Point {
	cells := s.Cells()
	out := make([]gridgather.Point, len(cells))
	for i, c := range cells {
		out[i] = gridgather.Point{X: c.X, Y: c.Y}
	}
	return out
}

// lookup resolves a workload family name to its seeded catalog entry.
func lookup(name string) (gen.SeededWorkload, error) {
	w, ok := gen.Lookup(name)
	if !ok {
		return gen.SeededWorkload{}, fmt.Errorf("sweep: unknown workload %q (have %v)", name, Families())
	}
	return w, nil
}

// Families lists the workload family names available to sweeps.
func Families() []string {
	var out []string
	for _, w := range gen.SeededCatalog() {
		out = append(out, w.Name)
	}
	return out
}

// Runner fans jobs out across goroutines. The zero value runs with
// GOMAXPROCS-many concurrent simulations.
type Runner struct {
	// Concurrency is the number of simulations in flight; 0 means
	// runtime.GOMAXPROCS(0).
	Concurrency int
	// OnResult, if non-nil, is called once per completed job, serialized
	// (never concurrently), in completion order. Used for progress output.
	OnResult func(Result)
}

// Run executes every job and returns results in job order (results[i]
// belongs to jobs[i]), regardless of concurrency or completion order.
func (r Runner) Run(jobs []Job) []Result {
	results := make([]Result, len(jobs))
	workers := r.Concurrency
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for i, job := range jobs {
			results[i] = RunOne(job)
			if r.OnResult != nil {
				r.OnResult(results[i])
			}
		}
		return results
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex // serializes OnResult
		index = make(chan int)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range index {
				results[i] = RunOne(jobs[i])
				if r.OnResult != nil {
					mu.Lock()
					r.OnResult(results[i])
					mu.Unlock()
				}
			}
		}()
	}
	for i := range jobs {
		index <- i
	}
	close(index)
	wg.Wait()
	return results
}

// Spec declares a sweep grid. Jobs expands it into the cross product of
// workloads × sizes × parameter sets × schedulers × algorithms × seeds,
// skipping redundant seeds when neither the workload builder nor the
// scheduler depends on them.
type Spec struct {
	// Workloads are family names from gen.SeededCatalog; empty means all.
	Workloads []string
	// Sizes are the requested robot counts; required.
	Sizes []int
	// Seeds seed the randomized families; empty means {42}. Deterministic
	// families run once per (size, params) with the first seed only.
	Seeds []int64
	// Params are the algorithm parameter sets; empty means
	// {core.Defaults()}.
	Params []core.Params
	// Schedulers are time-model specs (sched.Parse grammar); empty means
	// {"fsync"}.
	Schedulers []string
	// Algorithms are robot program names (see Algorithms); empty means
	// {"paper"}.
	Algorithms []string
	// Faults are fault-injection specs (fault.Parse grammar); empty means
	// {""} (fault-free). Specs whose clauses lack an explicit "@seed" draw
	// their fault schedule from each job's seed.
	Faults []string
}

// Jobs expands the spec into concrete jobs in deterministic order
// (workload-major, then size, then params, then scheduler, then faults,
// then algorithm, then seed).
func (s Spec) Jobs() ([]Job, error) {
	if len(s.Sizes) == 0 {
		return nil, fmt.Errorf("sweep: spec has no sizes")
	}
	families := s.Workloads
	if len(families) == 0 {
		for _, w := range gen.SeededCatalog() {
			families = append(families, w.Name)
		}
	}
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []int64{42}
	}
	params := s.Params
	if len(params) == 0 {
		params = []core.Params{core.Defaults()}
	}
	schedulers := s.Schedulers
	if len(schedulers) == 0 {
		schedulers = []string{"fsync"}
	}
	algorithms := s.Algorithms
	if len(algorithms) == 0 {
		algorithms = []string{"paper"}
	}
	for _, a := range algorithms {
		if a != "" && !slices.Contains(gridgather.Algorithms(), a) {
			return nil, fmt.Errorf("sweep: unknown algorithm %q (have %s)",
				a, strings.Join(gridgather.Algorithms(), ", "))
		}
	}
	// Validate scheduler specs once, up front — a bad spec must fail the
	// expansion, not surface as per-job errors mid-sweep.
	schedRandom := make(map[string]bool, len(schedulers))
	for _, spec := range schedulers {
		r, err := sched.Randomized(spec)
		if err != nil {
			return nil, err
		}
		schedRandom[spec] = r
	}
	faults := s.Faults
	if len(faults) == 0 {
		faults = []string{""}
	}
	// Likewise fault specs: validate once, and record which specs draw
	// their fault schedule from the job seed (any clause without "@seed").
	faultSeeded := make(map[string]bool, len(faults))
	for _, spec := range faults {
		fs, err := fault.Seeded(spec)
		if err != nil {
			return nil, err
		}
		faultSeeded[spec] = fs
	}
	var jobs []Job
	for _, name := range families {
		family, err := lookup(name)
		if err != nil {
			return nil, err
		}
		for _, n := range s.Sizes {
			if n < 1 {
				return nil, fmt.Errorf("sweep: size %d", n)
			}
			for _, p := range params {
				if err := p.Validate(); err != nil {
					return nil, fmt.Errorf("sweep: %w", err)
				}
				for _, scheduler := range schedulers {
					for _, faultSpec := range faults {
						// Skip redundant seeds only when neither the
						// workload builder, the scheduler, nor the fault
						// plan depends on the seed.
						jobSeeds := seeds
						if !family.Random && !schedRandom[scheduler] && !faultSeeded[faultSpec] {
							jobSeeds = seeds[:1]
						}
						for _, algorithm := range algorithms {
							for _, seed := range jobSeeds {
								jobs = append(jobs, Job{
									Workload:  name,
									N:         n,
									Seed:      seed,
									Params:    p,
									Scheduler: scheduler,
									Algorithm: algorithm,
									Faults:    faultSpec,
								})
							}
						}
					}
				}
			}
		}
	}
	return jobs, nil
}
