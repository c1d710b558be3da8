// Package exp is the experiment harness: it regenerates the quantitative
// results of the reproduction (experiments E1–E21, listed in README) as
// plain-text tables. `gatherbench -exp` prints them.
package exp

import (
	"context"
	"fmt"
	"io"

	"gridgather"
	"gridgather/internal/baseline/asyncseq"
	"gridgather/internal/baseline/gtc"
	"gridgather/internal/core"
	"gridgather/internal/gen"
	"gridgather/internal/metrics"
	"gridgather/internal/sweep"
)

// Concurrency is the number of simulations the harness runs at once when an
// experiment fans a batch out through the sweep runner (0 = all CPUs).
// cmd/gatherbench sets it from its -jobs flag.
var Concurrency = 0

// families returns the workload families of the fixed-seed tables: the
// seeded catalog without walk and antcolony, whose shapes vary too wildly
// across seeds for seed 42 to stand for the family. Sweeps over several
// seeds (cmd/gathersweep) cover those two.
func families() []gen.SeededWorkload {
	var out []gen.SeededWorkload
	for _, w := range gen.SeededCatalog() {
		if w.Name != "walk" && w.Name != "antcolony" {
			out = append(out, w)
		}
	}
	return out
}

// hollowN is the robot count of the hollow family's w×w ring (the
// family builds side n/4 + 1).
func hollowN(side int) int { return 4 * (side - 1) }

// gridBatch fans a batch of jobs out across Concurrency-many goroutines and
// returns results in job order.
func gridBatch(jobs []sweep.Job) []sweep.Result {
	return sweep.Runner{Concurrency: Concurrency}.Run(jobs)
}

// E1GridScaling regenerates the headline result (Theorem 1): rounds grow
// linearly in n for every workload family.
func E1GridScaling(w io.Writer, sizes []int) {
	fmt.Fprintln(w, "E1 — Theorem 1: rounds vs n on the grid (paper: O(n), optimal)")
	tab := metrics.Table{Header: append([]string{"workload"}, func() []string {
		var h []string
		for _, n := range sizes {
			h = append(h, fmt.Sprintf("n=%d", n))
		}
		return append(h, "rounds/n", "exponent")
	}()...)}
	p := core.Defaults()
	catalog := families()
	var jobs []sweep.Job
	for _, wl := range catalog {
		for _, n := range sizes {
			jobs = append(jobs, sweep.Job{Workload: wl.Name, N: n, Seed: 42, Params: p})
		}
	}
	results := gridBatch(jobs)
	for i, wl := range catalog {
		row := []string{wl.Name}
		var series metrics.Series
		for j := range sizes {
			res := results[i*len(sizes)+j]
			if res.Err != "" {
				row = append(row, "ERR")
				continue
			}
			row = append(row, fmt.Sprint(res.Rounds))
			series.Append(float64(res.Robots), float64(res.Rounds))
		}
		last := series.Len() - 1
		row = append(row,
			fmt.Sprintf("%.2f", series.Y[last]/series.X[last]),
			fmt.Sprintf("%.2f", series.Exponent()))
		tab.AddRow(row...)
	}
	fmt.Fprint(w, tab.String())
	fmt.Fprintln(w)
}

// E2PlaneComparison regenerates the comparison against the Euclidean
// baseline [DKL+11]: the grid's worst cases gather in O(n) rounds, the
// plane's worst cases need Θ(n²) — "our runtime of O(n) ... beats the best
// known algorithm, which requires time O(n²)". The grid line meets the
// Ω(n) diameter bound exactly; the plane circle realizes the quadratic
// behaviour (per-round progress is the chord sagitta Θ(1/n)); the grid
// ring is the shape-matched instance (linear with a large constant — its
// incremental slope is constant, see E1b).
func E2PlaneComparison(w io.Writer, sizes []int) {
	fmt.Fprintln(w, "E2 — grid O(n) vs Euclidean-plane go-to-center O(n²) [DKL+11]")
	tab := metrics.Table{Header: []string{"n", "grid line", "grid ring", "plane circle", "plane/grid-line"}}
	var lineSeries, ringSeries, planeSeries metrics.Series
	p := core.Defaults()
	var jobs []sweep.Job
	for _, n := range sizes {
		// The hollow family builds the ring of side n/4 + 1.
		jobs = append(jobs,
			sweep.Job{Workload: "line", N: n, Params: p},
			sweep.Job{Workload: "hollow", N: n, Params: p})
	}
	results := gridBatch(jobs)
	for i, n := range sizes {
		lineRes, ringRes := results[2*i], results[2*i+1]

		sim := gtc.NewSim(gtc.CircleInstance(n, 1.0), gtc.DefaultParams())
		planeRes := sim.Run(2_000_000)

		ratio := float64(planeRes.Rounds) / float64(max(1, lineRes.Rounds))
		tab.AddRowf(n, lineRes.Rounds, ringRes.Rounds, planeRes.Rounds, ratio)
		lineSeries.Append(float64(n), float64(lineRes.Rounds))
		ringSeries.Append(float64(ringRes.Robots), float64(ringRes.Rounds))
		planeSeries.Append(float64(n), float64(planeRes.Rounds))
	}
	fmt.Fprint(w, tab.String())
	fmt.Fprintf(w, "growth exponents: grid line %.2f (linear, meets the diameter bound),\n",
		lineSeries.Exponent())
	fmt.Fprintf(w, "  plane circle %.2f (quadratic); grid ring %.2f — inflated by a negative\n",
		planeSeries.Exponent(), ringSeries.Exponent())
	fmt.Fprintln(w, "  intercept; its incremental slope is constant (E1b), i.e. linear.")
	fmt.Fprintln(w)
}

// E1bHollowDetail demonstrates that the hollow ring family — whose power
// exponent over small sizes looks super-linear — is exactly linear: the
// measured rounds follow 11·w + c, with constant incremental slope.
func E1bHollowDetail(w io.Writer, sides []int) {
	fmt.Fprintln(w, "E1b — hollow ring detail: rounds are linear in the side length w")
	tab := metrics.Table{Header: []string{"w", "n", "rounds", "Δrounds/Δw"}}
	p := core.Defaults()
	var jobs []sweep.Job
	for _, side := range sides {
		jobs = append(jobs, sweep.Job{Workload: "hollow", N: hollowN(side), Params: p})
	}
	prevW, prevRounds := 0, 0
	for i, res := range gridBatch(jobs) {
		side := sides[i]
		slope := "-"
		if prevW > 0 {
			slope = fmt.Sprintf("%.1f", float64(res.Rounds-prevRounds)/float64(side-prevW))
		}
		tab.AddRow(fmt.Sprint(side), fmt.Sprint(res.Robots), fmt.Sprint(res.Rounds), slope)
		prevW, prevRounds = side, res.Rounds
	}
	fmt.Fprint(w, tab.String())
	fmt.Fprintln(w)
}

// E3AsyncBaseline regenerates the introduction's remark: a fair sequential
// ASYNC scheduler admits a simple O(n)-round strategy.
func E3AsyncBaseline(w io.Writer, sizes []int) {
	fmt.Fprintln(w, "E3 — ASYNC fair-scheduler simple strategy (paper §1: O(n) rounds)")
	tab := metrics.Table{Header: []string{"workload", "n", "rounds", "rounds/n"}}
	for _, wl := range families() {
		for _, n := range sizes {
			s := wl.Build(n, 42)
			actual := s.Len()
			res := asyncseq.Run(s, 10*actual+100)
			if res.Err != nil {
				tab.AddRow(wl.Name, fmt.Sprint(actual), "ERR", "-")
				continue
			}
			tab.AddRowf(wl.Name, actual, res.Rounds, float64(res.Rounds)/float64(actual))
		}
	}
	fmt.Fprint(w, tab.String())
	fmt.Fprintln(w)
}

// E15Pipelining regenerates the §4.2 observation: on large mergeless rings,
// runs pipeline — many are active concurrently and merges arrive at a
// steady rate ≈ one batch per L rounds.
func E15Pipelining(w io.Writer, side int) {
	fmt.Fprintf(w, "E15 — pipelining on a %dx%d mergeless ring (L=22)\n", side, side)
	cells, err := gridgather.Workload("hollow", hollowN(side))
	var sim *gridgather.Simulation
	if err == nil {
		sim, err = gridgather.New(cells)
	}
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n\n", err)
		return
	}
	maxConcurrent, mergeRounds := 0, 0
	sim.Subscribe(gridgather.RoundEvents, func(ev gridgather.Event) {
		maxConcurrent = max(maxConcurrent, len(ev.Runners))
		if ev.RoundMerges > 0 {
			mergeRounds++
		}
	})
	res := sim.Run(context.Background())
	tab := metrics.Table{Header: []string{"n", "rounds", "runs started", "max concurrent runners", "rounds with merges"}}
	tab.AddRowf(res.InitialRobots, res.Rounds, res.RunsStarted, maxConcurrent, mergeRounds)
	fmt.Fprint(w, tab.String())
	fmt.Fprintln(w)
}

// E18Ablation regenerates the §5.3 constants discussion: the paper proves
// L = 22 / radius 20 sufficient and notes radius 11 / L ≥ 13 suffice in the
// easy passing case; smaller radii change constants, not the linear shape.
func E18Ablation(w io.Writer, n int) {
	fmt.Fprintf(w, "E18 — ablation of the constants (viewing radius R, start period L) at n≈%d\n", n)
	tab := metrics.Table{Header: []string{"R", "L", "workload", "rounds", "runs", "gathered"}}
	configs := []struct{ r, l int }{{20, 22}, {11, 13}, {20, 13}, {11, 22}, {8, 9}}
	var jobs []sweep.Job
	for _, cfg := range configs {
		p := core.WithConstants(cfg.r, cfg.l)
		for _, name := range []string{"hollow", "blob"} {
			jobs = append(jobs, sweep.Job{Workload: name, N: n, Seed: 42, Params: p})
		}
	}
	for _, res := range gridBatch(jobs) {
		gathered := "yes"
		if res.Err != "" || !res.Gathered {
			gathered = "NO"
		}
		tab.AddRowf(res.Job.Params.Radius, res.Job.Params.L, res.Job.Workload,
			res.Rounds, res.RunsStarted, gathered)
	}
	fmt.Fprint(w, tab.String())
	fmt.Fprintln(w)
}

// E20LowerBound regenerates the Ω(n) direction of Theorem 1: the diameter
// argument — a line of n robots cannot gather faster than (diam-1)/2
// rounds, and the algorithm meets the bound exactly.
func E20LowerBound(w io.Writer, sizes []int) {
	fmt.Fprintln(w, "E20 — Ω(n) lower bound: line workload vs diameter bound")
	tab := metrics.Table{Header: []string{"n", "diameter", "lower bound", "measured rounds"}}
	p := core.Defaults()
	var jobs []sweep.Job
	for _, n := range sizes {
		jobs = append(jobs, sweep.Job{Workload: "line", N: n, Params: p})
	}
	for i, res := range gridBatch(jobs) {
		diam := gen.Line(sizes[i]).Diameter()
		tab.AddRowf(sizes[i], diam, (diam-1)/2, res.Rounds)
	}
	fmt.Fprint(w, tab.String())
	fmt.Fprintln(w)
}

// E21Movements records the total number of robot movements per workload —
// the cost measure of the [SN14] line of work (§2: gathering "optimal
// concerning the total number of movements" under global vision). The
// paper's local algorithm optimizes rounds, not movements; this table
// shows its movement cost stays modest (O(n) per family, a few hops per
// robot) even though no movement optimality is claimed.
func E21Movements(w io.Writer, sizes []int) {
	fmt.Fprintln(w, "E21 — total robot movements (the [SN14] cost measure; informational)")
	tab := metrics.Table{Header: []string{"workload", "n", "rounds", "moves", "moves/robot"}}
	p := core.Defaults()
	var jobs []sweep.Job
	for _, wl := range families() {
		for _, n := range sizes {
			jobs = append(jobs, sweep.Job{Workload: wl.Name, N: n, Seed: 42, Params: p})
		}
	}
	for _, res := range gridBatch(jobs) {
		if res.Err != "" {
			tab.AddRow(res.Job.Workload, fmt.Sprint(res.Job.N), "ERR", "-", "-")
			continue
		}
		tab.AddRowf(res.Job.Workload, res.Robots, res.Rounds, res.Moves,
			float64(res.Moves)/float64(res.Robots))
	}
	fmt.Fprint(w, tab.String())
	fmt.Fprintln(w)
}

// Sizes are the default sweep sizes of the suite.
var Sizes = []int{40, 80, 160, 320}

// PlaneSizes are smaller (the plane baseline is quadratic — large sizes
// take minutes by design).
var PlaneSizes = []int{32, 64, 128, 256}

// All regenerates every experiment with the default sweep sizes.
func All(w io.Writer) {
	E1GridScaling(w, Sizes)
	E1bHollowDetail(w, []int{25, 41, 61, 81, 121})
	E2PlaneComparison(w, PlaneSizes)
	E3AsyncBaseline(w, []int{100, 300})
	E15Pipelining(w, 56)
	E18Ablation(w, 160)
	E20LowerBound(w, []int{50, 100, 200, 400})
	E21Movements(w, []int{160})
}
