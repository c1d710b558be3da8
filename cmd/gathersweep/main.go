// Command gathersweep runs a grid of gathering experiments — the cross
// product of workload families × sizes × parameter sets × schedulers ×
// fault plans × algorithms × seeds — with concurrent simulations, and
// reports aggregated statistics (rounds, rounds/n, merges, moves; mean and
// percentiles) as a table, JSON or CSV.
//
// Usage:
//
//	gathersweep -workloads hollow,line -sizes 100,200,400
//	gathersweep -workloads blob,tree -sizes 200 -seeds 1,2,3,4,5 -format csv
//	gathersweep -sizes 160 -radius 20,11 -L 22,13 -format json -o sweep.json
//	gathersweep -workloads hollow -sizes 2000 -v
//	gathersweep -sizes 100 -scheduler fsync,ssync,async:4 -algorithms greedy
//	gathersweep -sizes 100 -scheduler ssync -algorithms paper,greedy
//	gathersweep -sizes 100 -faults "off;crash:p=0.001;crash-at:r=50,k=8" -algorithms greedy
//
// -scheduler sweeps the time model (FSYNC/SSYNC/ASYNC; see internal/sched)
// and -algorithms the robot program: "paper" is the reproduction, proved
// for FSYNC only — under relaxed schedulers its failures (disconnections)
// are themselves the measurement — while "greedy" stays safe under every
// scheduler.
//
// -faults sweeps the fault-injection axis (internal/fault): a
// semicolon-separated list of plans, each a "+"-joined set of clauses
// (clauses contain commas, hence the semicolon separator). Faulty runs
// gather their surviving robots — degraded runs are reported in the "degr"
// column, crash counts in the raw outputs.
//
// -jobs controls how many simulations run concurrently (0, the default,
// means one per CPU). Each simulation runs on one goroutine and is
// deterministic, so sweep outputs are reproducible.
//
// Each worker in the sweep's pool drives its jobs as public gridgather
// sessions (gridgather.New + Run) — the sweep harness consumes the same
// Simulation surface as every other client, so budgets, seed semantics and
// scenario resolution cannot drift between the sweep and the API.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"gridgather"
	"gridgather/internal/core"
	"gridgather/internal/fault"
	"gridgather/internal/sched"
	"gridgather/internal/sweep"
)

func main() {
	var (
		workloads  = flag.String("workloads", "", "comma-separated workload families (default: all; have: "+strings.Join(sweep.Families(), ", ")+")")
		sizes      = flag.String("sizes", "100,200,400", "comma-separated robot counts")
		seeds      = flag.String("seeds", "42", "comma-separated seeds for randomized families and schedulers")
		radii      = flag.String("radius", "20", "comma-separated viewing radii")
		ls         = flag.String("L", "22", "comma-separated run start periods")
		schedulers = flag.String("scheduler", "fsync", "comma-separated time models (grammar: "+strings.Join(sched.Specs(), ", ")+")")
		algorithms = flag.String("algorithms", "paper", "comma-separated robot programs (have: "+strings.Join(gridgather.Algorithms(), ", ")+")")
		faults     = flag.String("faults", "", "semicolon-separated fault plans, each \"+\"-joined clauses of: "+strings.Join(fault.Specs(), ", ")+" (empty = fault-free)")
		jobs       = flag.Int("jobs", 0, "concurrent simulations (0 = GOMAXPROCS)")
		format     = flag.String("format", "table", "output format: table, json, csv")
		raw        = flag.Bool("raw", false, "emit per-run results instead of aggregates (csv/json)")
		out        = flag.String("o", "", "write output to file instead of stdout")
		verbose    = flag.Bool("v", false, "print per-run progress to stderr")
	)
	flag.Parse()

	spec := sweep.Spec{
		Sizes:      parseInts(*sizes),
		Seeds:      parseInt64s(*seeds),
		Schedulers: splitList(*schedulers),
		Algorithms: splitList(*algorithms),
		Faults:     splitSemiList(*faults),
	}
	spec.Workloads = splitList(*workloads)
	for _, r := range parseInts(*radii) {
		for _, l := range parseInts(*ls) {
			spec.Params = append(spec.Params, core.WithConstants(r, l))
		}
	}

	switch *format {
	case "table", "json", "csv":
	default:
		// Reject up front: a long sweep should not run before a format
		// typo is noticed.
		fmt.Fprintf(os.Stderr, "unknown format %q (have table, json, csv)\n", *format)
		os.Exit(2)
	}
	jobList, err := spec.Jobs()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	runner := sweep.Runner{Concurrency: *jobs}
	if *verbose {
		done := 0
		runner.OnResult = func(r sweep.Result) {
			done++
			status := fmt.Sprintf("rounds=%d", r.Rounds)
			if r.Err != "" {
				status = "ERR " + r.Err
			}
			faultTag := ""
			if r.Job.Faults != "" {
				faultTag = " faults=" + r.Job.Faults
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s n=%d seed=%d R=%d L=%d sched=%s alg=%s%s: %s (%.0fms)\n",
				done, len(jobList), r.Job.Workload, r.Job.N, r.Job.Seed,
				r.Job.Params.Radius, r.Job.Params.L,
				r.Job.Scheduler, r.Job.Algorithm, faultTag, status,
				float64(r.Duration.Microseconds())/1000)
		}
	}
	results := runner.Run(jobList)

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := emit(w, *format, *raw, results); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// emit writes the results in the requested format.
func emit(w io.Writer, format string, raw bool, results []sweep.Result) error {
	switch format {
	case "table":
		_, err := io.WriteString(w, sweep.Table(sweep.Aggregated(results)))
		return err
	case "json":
		if raw {
			return sweep.WriteJSON(w, results)
		}
		return sweep.WriteJSON(w, sweep.NewReport(results))
	case "csv":
		if raw {
			return sweep.WriteResultsCSV(w, results)
		}
		return sweep.WriteAggregatesCSV(w, sweep.Aggregated(results))
	default:
		return fmt.Errorf("unknown format %q (have table, json, csv)", format)
	}
}

// parseInts parses a comma-separated integer list, exiting on bad input.
func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad integer %q\n", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

// parseInt64s parses a comma-separated int64 list, exiting on bad input.
// Seeds are parsed as full 64-bit values directly — routing them through
// int (as parseInts does) would truncate or reject 64-bit seeds on 32-bit
// platforms.
func parseInt64s(s string) []int64 {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad integer %q\n", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

// splitList splits a comma-separated flag value, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// splitSemiList splits a semicolon-separated flag value, dropping empty
// entries — fault plans contain commas ("crash-at:r=50,k=8"), so the
// -faults list cannot reuse the comma separator. "off" entries survive (a
// fault-free arm of a faults sweep is meaningful), only blanks are dropped.
func splitSemiList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ";") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
