// Command gatherbench regenerates the experiment tables of the
// reproduction (experiments E1–E21, listed in README; -exp selects one)
// and measures the engine's per-round performance.
//
// Usage:
//
//	gatherbench                         # run the full experiment suite
//	gatherbench -exp e2                 # run one experiment
//	gatherbench -jobs 4                 # cap concurrent simulations at 4
//	gatherbench -bench-json BENCH_engine.json -bench-workers 1,2,4,8
//	                                    # measure Engine.Step per workload
//	                                    # and worker count, write bench JSON
//	gatherbench -bench-json out.json -bench-ns 512 -bench-rounds 60 \
//	            -bench-gather=false -bench-workers 1,4 -bench-guard
//	                                    # CI smoke: quick measurement plus
//	                                    # the serial-vs-parallel regression
//	                                    # guard
//
// Experiments that batch many independent simulations (E1, E18, E21) fan
// them out through the sweep runner (internal/sweep); -jobs bounds that
// concurrency (0 = all CPUs). For parameterized grids beyond the recorded
// experiment suite, use cmd/gathersweep.
//
// -bench-json runs the internal/perf harness over the acceptance
// workloads (hollow, solid, line, blob) for every -bench-workers count and
// every -bench-ns size, prints the table, and writes the JSON to the given
// path. -bench-conn adds the connectivity-check microbench (incremental
// layer vs full scratch BFS on sparse-movement rounds); -bench-quiesce
// measures every cell under both quiescence modes (the dirty-region fast
// path vs pinned full recomputation — the on/off ratio is the quiescence
// layer's headline); -bench-repeats keeps the fastest of several repeats
// per cell, which is what lets the tight regression guard hold on noisy
// machines. The committed BENCH_engine.json at the repo root is the
// performance baseline — regenerate it with `-bench-ns 16384,131072
// -bench-conn -bench-quiesce -bench-repeats 3 -bench-workers 1,4
// -bench-gather=false` on a quiet machine. -bench-guard exits non-zero if
// the parallel pipeline measured slower than the serial path on any
// (workload, n, quiesce mode) beyond perf.GuardTolerance.
//
// -cpuprofile and -memprofile write standard pprof profiles of the whole
// run (experiments or bench alike) for use with `go tool pprof`.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"gridgather/internal/exp"
	"gridgather/internal/perf"
)

// parseIntList parses a comma-separated list of positive integers.
func parseIntList(flagName, spec string) ([]int, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(spec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad %s entry %q (want positive integers)", flagName, f)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	which := flag.String("exp", "all", "experiment to run: all, e1, e1b, e2, e3, e15, e18, e20, e21")
	jobs := flag.Int("jobs", 0, "concurrent simulations for batched experiments (0 = all CPUs)")
	benchJSON := flag.String("bench-json", "", "measure Engine.Step per workload/backend and write bench JSON to this path (skips the experiments)")
	benchNs := flag.String("bench-ns", "2048", "comma-separated approximate robot counts for -bench-json workloads")
	benchRounds := flag.Int("bench-rounds", 150, "measured rounds per -bench-json cell")
	benchWarmup := flag.Int("bench-warmup", 30, "warmup rounds per -bench-json cell before measurement")
	benchRepeats := flag.Int("bench-repeats", 1, "repeat each -bench-json cell this many times and keep the fastest (noise filter)")
	benchGather := flag.Bool("bench-gather", true, "also record full-simulation gather rounds per workload in -bench-json")
	benchWorkers := flag.String("bench-workers", "1", "comma-separated worker counts to measure per -bench-json workload")
	benchWorkloads := flag.String("bench-workloads", "", "comma-separated workload names for -bench-json (default hollow,solid,line,blob; large-n runs should pick compact shapes — hollow/line tile memory grows with the perimeter)")
	benchConn := flag.Bool("bench-conn", false, "also measure the connectivity check (incremental vs full BFS) per workload/n")
	benchQuiesce := flag.Bool("bench-quiesce", false, "measure each -bench-json cell under both quiescence modes (fast path vs full recompute)")
	benchGuard := flag.Bool("bench-guard", false, "exit non-zero if the parallel pipeline is slower than the serial path")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run (experiments or bench) to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken at the end of the run to this file")
	flag.Parse()
	exp.Concurrency = *jobs

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	w := os.Stdout
	if *benchJSON != "" {
		workers, err := parseIntList("-bench-workers", *benchWorkers)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		ns, err := parseIntList("-bench-ns", *benchNs)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		var workloads []string
		if strings.TrimSpace(*benchWorkloads) != "" {
			for _, f := range strings.Split(*benchWorkloads, ",") {
				workloads = append(workloads, strings.TrimSpace(f))
			}
		}
		rep, err := perf.Run(perf.Config{
			Ns:            ns,
			Workloads:     workloads,
			MeasureRounds: *benchRounds,
			WarmupRounds:  *benchWarmup,
			Repeats:       *benchRepeats,
			Workers:       workers,
			Gather:        *benchGather,
			ConnCheck:     *benchConn,
			Quiesce:       *benchQuiesce,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := perf.WriteTable(w, rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := perf.WriteJSON(rep, *benchJSON); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "\nwrote %s\n", *benchJSON)
		if *benchGuard {
			if err := perf.Guard(rep); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintln(w, "regression guard: parallel ≤ serial on every workload")
		}
		return
	}
	switch *which {
	case "all":
		exp.All(w)
	case "e1":
		exp.E1GridScaling(w, exp.Sizes)
	case "e1b":
		exp.E1bHollowDetail(w, []int{25, 41, 61, 81, 121})
	case "e2":
		exp.E2PlaneComparison(w, exp.PlaneSizes)
	case "e3":
		exp.E3AsyncBaseline(w, []int{100, 300})
	case "e15":
		exp.E15Pipelining(w, 56)
	case "e18":
		exp.E18Ablation(w, 160)
	case "e20":
		exp.E20LowerBound(w, []int{50, 100, 200, 400})
	case "e21":
		exp.E21Movements(w, []int{160})
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *which)
		os.Exit(2)
	}
}
