package sweep

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
)

// Report bundles a sweep's raw results with their aggregates, the shape
// WriteJSON emits for downstream tooling.
type Report struct {
	// Results are the per-run outcomes in job order.
	Results []Result `json:"results"`
	// Aggregates summarize the results per (workload, n, params) group.
	Aggregates []Aggregate `json:"aggregates"`
}

// NewReport builds a Report from job-ordered results.
func NewReport(results []Result) Report {
	return Report{Results: results, Aggregates: Aggregated(results)}
}

// WriteJSON writes v (a Report, []Result or []Aggregate) as indented JSON.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// WriteResultsCSV writes one CSV row per run, with a header row.
func WriteResultsCSV(w io.Writer, results []Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"workload", "n", "seed", "radius", "l", "scheduler", "algorithm", "faults",
		"robots", "final_robots",
		"gathered", "rounds", "rounds_per_n", "merges", "moves",
		"runs_started", "crashes", "degraded", "quiescent_ratio", "err", "duration_ms",
	}); err != nil {
		return err
	}
	canon, canonF := memo(canonicalScheduler), memo(canonicalFaults)
	for _, r := range results {
		rec := []string{
			r.Job.Workload,
			fmt.Sprint(r.Job.N),
			fmt.Sprint(r.Job.Seed),
			fmt.Sprint(r.Job.Params.Radius),
			fmt.Sprint(r.Job.Params.L),
			canon(r.Job.Scheduler),
			canonicalAlgorithm(r.Job.Algorithm),
			canonF(r.Job.Faults),
			fmt.Sprint(r.Robots),
			fmt.Sprint(r.FinalRobots),
			fmt.Sprint(r.Gathered),
			fmt.Sprint(r.Rounds),
			fmt.Sprintf("%.4f", r.RoundsPerN),
			fmt.Sprint(r.Merges),
			fmt.Sprint(r.Moves),
			fmt.Sprint(r.RunsStarted),
			fmt.Sprint(r.Crashes),
			fmt.Sprint(r.Degraded),
			fmt.Sprintf("%.4f", r.QuiescentRatio),
			r.Err,
			fmt.Sprintf("%.3f", float64(r.Duration.Microseconds())/1000),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteAggregatesCSV writes one CSV row per aggregate group, with a header
// row.
func WriteAggregatesCSV(w io.Writer, aggs []Aggregate) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"workload", "n", "radius", "l", "scheduler", "algorithm", "faults",
		"runs", "failures", "degraded", "robots",
		"rounds_mean", "rounds_min", "rounds_max", "rounds_p50", "rounds_p90", "rounds_p99",
		"rounds_per_n_mean", "merges_mean", "moves_mean", "runs_started_mean",
		"quiescent_ratio_mean",
	}); err != nil {
		return err
	}
	for _, a := range aggs {
		rec := []string{
			a.Workload,
			fmt.Sprint(a.N),
			fmt.Sprint(a.Radius),
			fmt.Sprint(a.L),
			a.Scheduler,
			a.Algorithm,
			a.Faults,
			fmt.Sprint(a.Runs),
			fmt.Sprint(a.Failures),
			fmt.Sprint(a.Degraded),
			fmt.Sprintf("%.1f", a.Robots),
			fmt.Sprintf("%.2f", a.Rounds.Mean),
			fmt.Sprintf("%.0f", a.Rounds.Min),
			fmt.Sprintf("%.0f", a.Rounds.Max),
			fmt.Sprintf("%.1f", a.Rounds.P50),
			fmt.Sprintf("%.1f", a.Rounds.P90),
			fmt.Sprintf("%.1f", a.Rounds.P99),
			fmt.Sprintf("%.4f", a.RoundsPerN.Mean),
			fmt.Sprintf("%.2f", a.Merges.Mean),
			fmt.Sprintf("%.2f", a.Moves.Mean),
			fmt.Sprintf("%.2f", a.RunsStarted.Mean),
			fmt.Sprintf("%.4f", a.QuiescentRatio.Mean),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
