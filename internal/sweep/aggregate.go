package sweep

import (
	"fmt"
	"sort"

	"gridgather/internal/fault"
	"gridgather/internal/metrics"
	"gridgather/internal/sched"
)

// Dist summarizes the distribution of one metric across the runs of an
// aggregate group.
type Dist struct {
	// Mean, Min and Max are the sample mean and extremes.
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	// P50, P90 and P99 are interpolated percentiles (metrics.Percentile).
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
}

// dist builds a Dist from a sample, sorting one copy for all percentiles.
func dist(xs []float64) Dist {
	if len(xs) == 0 {
		return Dist{}
	}
	s := metrics.Summarize(xs)
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return Dist{
		Mean: s.Mean,
		Min:  s.Min,
		Max:  s.Max,
		P50:  metrics.PercentileSorted(sorted, 50),
		P90:  metrics.PercentileSorted(sorted, 90),
		P99:  metrics.PercentileSorted(sorted, 99),
	}
}

// Aggregate summarizes all runs of one (workload, n, params) group across
// its seeds.
type Aggregate struct {
	// Workload and N identify the instance family and requested size.
	Workload string `json:"workload"`
	N        int    `json:"n"`
	// Radius and L identify the parameter set.
	Radius int `json:"radius"`
	L      int `json:"l"`
	// Scheduler is the canonical time-model name (e.g. "fsync",
	// "ssync-rr:3") and Algorithm the robot program of the group.
	Scheduler string `json:"scheduler"`
	Algorithm string `json:"algorithm"`
	// Faults is the canonical fault plan of the group ("" when fault-free).
	Faults string `json:"faults,omitempty"`
	// Runs is the number of simulations in the group, Failures how many
	// aborted (round limit, stuck watchdog, disconnection), Degraded how
	// many continued past a fault disconnection on the largest surviving
	// component (degraded runs still count as successes when they gather).
	Runs     int `json:"runs"`
	Failures int `json:"failures"`
	Degraded int `json:"degraded,omitempty"`
	// Robots is the mean actual robot count of the built instances.
	Robots float64 `json:"robots"`
	// Rounds, RoundsPerN, Merges, Moves and RunsStarted summarize the
	// respective per-run metrics over the successful runs.
	Rounds      Dist `json:"rounds"`
	RoundsPerN  Dist `json:"rounds_per_n"`
	Merges      Dist `json:"merges"`
	Moves       Dist `json:"moves"`
	RunsStarted Dist `json:"runs_started"`
	// QuiescentRatio summarizes the per-run fraction of activations served
	// from the quiescence verdict cache.
	QuiescentRatio Dist `json:"quiescent_ratio"`
}

// groupKey identifies an aggregate group.
type groupKey struct {
	workload  string
	n         int
	radius, l int
	scheduler string
	algorithm string
	faults    string
}

// canonicalScheduler maps equivalent scheduler specs to one group name
// ("" and "fsync" name the same model, "ssync" is "ssync-rr:3", …). Specs
// that do not parse group under their raw string.
func canonicalScheduler(spec string) string {
	s, err := sched.Parse(spec, 1)
	if err != nil {
		return spec
	}
	return s.String()
}

// memo returns f memoized, for row-wise canonicalization: sweeps reuse a
// handful of distinct specs across thousands of rows, and each
// canonicalization otherwise parses (allocating a scheduler or plan
// instance) per row.
func memo(f func(string) string) func(string) string {
	seen := make(map[string]string)
	return func(spec string) string {
		c, ok := seen[spec]
		if !ok {
			c = f(spec)
			seen[spec] = c
		}
		return c
	}
}

// canonicalAlgorithm maps the empty algorithm name to its default.
func canonicalAlgorithm(name string) string {
	if name == "" {
		return "paper"
	}
	return name
}

// canonicalFaults maps equivalent fault specs to one group name ("", "off"
// and "none" all name the fault-free plan; probabilities render in shortest
// round-trip form). Specs that do not parse group under their raw string.
func canonicalFaults(spec string) string {
	p, err := fault.Parse(spec, 1)
	if err != nil {
		return spec
	}
	return p.String()
}

// Aggregated groups results by (workload, n, radius, L, scheduler,
// algorithm, faults) and summarizes each group's metric distributions.
// Groups appear in first-occurrence order of the input, so job-ordered
// results yield deterministic reports.
func Aggregated(results []Result) []Aggregate {
	var order []groupKey
	groups := make(map[groupKey][]Result)
	canon, canonF := memo(canonicalScheduler), memo(canonicalFaults)
	for _, r := range results {
		k := groupKey{
			r.Job.Workload, r.Job.N, r.Job.Params.Radius, r.Job.Params.L,
			canon(r.Job.Scheduler), canonicalAlgorithm(r.Job.Algorithm),
			canonF(r.Job.Faults),
		}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	out := make([]Aggregate, 0, len(order))
	for _, k := range order {
		rs := groups[k]
		a := Aggregate{
			Workload: k.workload, N: k.n, Radius: k.radius, L: k.l,
			Scheduler: k.scheduler, Algorithm: k.algorithm, Faults: k.faults,
			Runs: len(rs),
		}
		var rounds, perN, merges, moves, runs, quiet []float64
		var robots float64
		for _, r := range rs {
			robots += float64(r.Robots)
			if r.Degraded {
				a.Degraded++
			}
			if r.Err != "" || !r.Gathered {
				a.Failures++
				continue
			}
			rounds = append(rounds, float64(r.Rounds))
			perN = append(perN, r.RoundsPerN)
			merges = append(merges, float64(r.Merges))
			moves = append(moves, float64(r.Moves))
			runs = append(runs, float64(r.RunsStarted))
			quiet = append(quiet, r.QuiescentRatio)
		}
		a.Robots = robots / float64(len(rs))
		a.Rounds = dist(rounds)
		a.RoundsPerN = dist(perN)
		a.Merges = dist(merges)
		a.Moves = dist(moves)
		a.RunsStarted = dist(runs)
		a.QuiescentRatio = dist(quiet)
		out = append(out, a)
	}
	return out
}

// Table renders aggregates as an aligned plain-text table in the style of
// the experiment harness outputs.
func Table(aggs []Aggregate) string {
	tab := metrics.Table{Header: []string{
		"workload", "n", "R", "L", "sched", "alg", "faults", "runs", "fail", "degr",
		"rounds(mean)", "rounds(p50)", "rounds(p90)", "rounds/n", "merges", "moves",
	}}
	for _, a := range aggs {
		faults := a.Faults
		if faults == "" {
			faults = "-"
		}
		tab.AddRow(
			a.Workload,
			fmt.Sprint(a.N),
			fmt.Sprint(a.Radius),
			fmt.Sprint(a.L),
			a.Scheduler,
			a.Algorithm,
			faults,
			fmt.Sprint(a.Runs),
			fmt.Sprint(a.Failures),
			fmt.Sprint(a.Degraded),
			fmt.Sprintf("%.1f", a.Rounds.Mean),
			fmt.Sprintf("%.1f", a.Rounds.P50),
			fmt.Sprintf("%.1f", a.Rounds.P90),
			fmt.Sprintf("%.2f", a.RoundsPerN.Mean),
			fmt.Sprintf("%.1f", a.Merges.Mean),
			fmt.Sprintf("%.1f", a.Moves.Mean),
		)
	}
	return tab.String()
}
