// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the library and the gatherd service, checks the
// outputs, and prints every metric by name with its unit; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"work_s": {"value": 9.1, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones (timed with tracing
// off); with --trace 1 the run repeats its measured phase with spans around
// every call into the library's layers and prints the per-layer metrics.
// The metric names, units and bounds are listed in BENCHMARK.json at the
// repository root; README.md in this directory explains each workload.
// The frontier workload runs here but is left out of BENCHMARK.json: its
// two-worker rounds were too noisy on the host the benchmark was tuned on.
//
// Usage (from the repository root; perfbench/run.py builds and runs it):
//
//	perfbench --workload gather-mid --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// params are one run's settings.
type params struct {
	seed    int64
	seconds int
	traced  bool
	tiny    bool   // test-sized inputs (the package tests)
	scratch string // directory for spill files and span dumps
}

// workload is one named benchmark workload.
type workload struct {
	name string
	run  func(p params) (result, error)
}

var workloads = []workload{
	{"gather-mid", runGatherMid},
	{"frontier", runFrontier},
	{"checkpoint", runCheckpoint},
	{"gatherd-mixed", runGatherd},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: gather-mid, frontier, checkpoint or gatherd-mixed")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	secs := fs.Int("seconds", 10, "nominal length of the measured phase; the amount of work is derived from it")
	trace := fs.Int("trace", 0, "1 repeats the measured phase traced and prints the per-layer metrics")
	scratch := fs.String("scratch", ".bench_build", "directory for spill files and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	p := params{seed: *seed, seconds: *secs, traced: *trace == 1, scratch: *scratch}
	start := time.Now()
	res, err := w.run(p)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res.notes = append(res.notes, fmt.Sprintf("run took %.1fs (GOMAXPROCS=%d)", time.Since(start).Seconds(), runtime.GOMAXPROCS(0)))
	return emit(stdout, stderr, w.name, p.traced, res)
}

// emit prints the notes, the failed checks and the JSON result line, and
// returns the exit code: 0 only when every check passed and no op failed.
func emit(stdout, stderr io.Writer, name string, traced bool, res result) int {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, n := range res.notes {
		fmt.Fprintf(stdout, "%s: %s\n", name, n)
	}
	out := map[string]metricValue{}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok && !traced {
			res.problems = append(res.problems, "metric "+d.name+" was not measured")
		}
		if !traced && v == 0 {
			res.problems = append(res.problems, "metric "+d.name+" is 0")
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%s: %-32s %14.6g %s\n", name, d.name, v, d.unit)
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", name, p)
	}
	correct := len(res.problems) == 0 && res.failed == 0
	line, err := json.Marshal(report{Correct: correct, Attempted: res.attempted, Failed: res.failed, Metrics: out})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// untracedResult turns an untraced phase into the end-to-end result.
func untracedResult(u *phase) result {
	return result{
		attempted: u.attempted,
		failed:    u.failed,
		problems:  u.problems,
		metrics:   endToEndMetrics(u),
		notes:     []string{fmt.Sprintf("%d ops timed, %d set-ups timed", len(u.ops), len(u.setup))},
	}
}

// tracedResult combines the untraced and traced phases of a --trace 1 run:
// it asserts that both simulated the same thing, adds trace.overhead and
// dumps the spans.
func tracedResult(name string, p params, u, t *phase, layer map[string]float64, rec *recorder) result {
	res := result{
		attempted: u.attempted + t.attempted,
		failed:    u.failed + t.failed,
		problems:  append(append([]string(nil), u.problems...), t.problems...),
		metrics:   layer,
	}
	if u.sim != t.sim {
		res.problems = append(res.problems, fmt.Sprintf("traced counters %+v differ from untraced %+v", t.sim, u.sim))
	} else {
		res.notes = append(res.notes, fmt.Sprintf("traced and untraced counters agree: %+v", t.sim))
	}
	if u.work > 0 {
		layer["trace.overhead"] = float64(t.work) / float64(u.work)
	}
	path := filepath.Join(p.scratch, "traces", fmt.Sprintf("%s-seed%d.jsonl", name, p.seed))
	if err := rec.write(path); err != nil {
		res.problems = append(res.problems, "writing spans: "+err.Error())
	} else {
		res.notes = append(res.notes, fmt.Sprintf("%d spans written to %s", len(rec.spans), path))
	}
	return res
}
