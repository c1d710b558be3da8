package gridgather_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gridgather"

	"gridgather/internal/baseline/asyncseq"
	"gridgather/internal/baseline/gtc"
	"gridgather/internal/core"
	"gridgather/internal/fsync"
	"gridgather/internal/gen"
	"gridgather/internal/grid"
	"gridgather/internal/swarm"
	"gridgather/internal/sweep"
	"gridgather/internal/view"
	"gridgather/internal/world"
)

// The benchmarks regenerate the experiment suite under `go test -bench`.
// Each reports, besides ns/op, the domain metrics that the paper's claims
// are about: FSYNC rounds and rounds per robot. The recorded E* tables
// come from these and from `gatherbench -exp` (README lists the suite).

// benchGather runs one full gathering simulation per iteration.
func benchGather(b *testing.B, build func() *swarm.Swarm, p core.Params) {
	b.Helper()
	var rounds, robots int
	for i := 0; i < b.N; i++ {
		s := build()
		g := core.NewGatherer(p)
		eng := fsync.New(s, g, fsync.Config{MaxRounds: fsync.DefaultBudget(s.Len()).MaxRounds})
		res := eng.Run()
		if res.Err != nil || !res.Gathered {
			b.Fatalf("simulation failed: %+v", res)
		}
		rounds = res.Rounds
		robots = res.InitialRobots
	}
	b.ReportMetric(float64(rounds), "rounds")
	b.ReportMetric(float64(rounds)/float64(robots), "rounds/robot")
}

// BenchmarkTheorem1 is experiment E1: linear-round gathering per workload
// family and size (the paper's headline O(n) result).
func BenchmarkTheorem1(b *testing.B) {
	for _, w := range gen.SeededCatalog() {
		for _, n := range []int{64, 128, 256} {
			b.Run(fmt.Sprintf("%s/n=%d", w.Name, n), func(b *testing.B) {
				benchGather(b, func() *swarm.Swarm { return w.Build(n, 42) }, core.Defaults())
			})
		}
	}
}

// BenchmarkEuclideanBaseline is experiment E2: the Θ(n²) plane comparator
// [DKL+11] on circle instances.
func BenchmarkEuclideanBaseline(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		b.Run(fmt.Sprintf("circle/n=%d", n), func(b *testing.B) {
			var rounds int
			for i := 0; i < b.N; i++ {
				sim := gtc.NewSim(gtc.CircleInstance(n, 1.0), gtc.DefaultParams())
				res := sim.Run(2_000_000)
				if res.Err != nil {
					b.Fatal(res.Err)
				}
				rounds = res.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
			b.ReportMetric(float64(rounds)/float64(n), "rounds/robot")
		})
	}
}

// BenchmarkAsyncBaseline is experiment E3: the fair-sequential ASYNC
// strategy of the paper's introduction (O(n) rounds trivially).
func BenchmarkAsyncBaseline(b *testing.B) {
	for _, n := range []int{100, 300} {
		b.Run(fmt.Sprintf("blob/n=%d", n), func(b *testing.B) {
			var rounds int
			for i := 0; i < b.N; i++ {
				s := gen.RandomBlob(n, 42)
				res := asyncseq.Run(s, 10*n+100)
				if res.Err != nil {
					b.Fatal(res.Err)
				}
				rounds = res.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkMergeDetection is experiment E5: the per-robot cost of checking
// the Fig. 2 merge configurations — the inner loop of every round.
//
// The sub-benchmarks read the way the engine's compute stage does: one
// view over a world.Dense, repositioned at each robot. They are split into
// interior robots (all four neighbours occupied, so no direction can be
// exposed) and boundary robots, the only ones that can be black.
// "dense/straight" reads the walls of a one-cell-thick 64×64 ring, where
// every robot sits on a straight run longer than MergeMax and the run
// scans, not the first reads, decide.
func BenchmarkMergeDetection(b *testing.B) {
	s := gen.RandomBlob(400, 7)
	p := core.Defaults()
	var interior, boundary []grid.Point
	for _, c := range s.Cells() {
		if s.Degree(c) == 4 {
			interior = append(interior, c)
		} else {
			boundary = append(boundary, c)
		}
	}
	ring := gen.Hollow(64, 64)
	for _, set := range []struct {
		name  string
		world *swarm.Swarm
		cells []grid.Point
	}{{"dense/interior", s, interior}, {"dense/boundary", s, boundary}, {"dense/straight", ring, ring.Cells()}} {
		v := view.New(view.Config{Radius: p.Radius, Dense: world.NewDense(set.world.Cells(), false)}, grid.Zero, 0)
		b.Run(set.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v.Reposition(set.cells[i%len(set.cells)], 0)
				core.MergeMove(v, p)
			}
		})
	}
}

// BenchmarkEngineRound measures the cost of a single FSYNC round on a
// large mergeless ring (all robots compute, none can merge — worst case
// for rule evaluation).
func BenchmarkEngineRound(b *testing.B) {
	for _, side := range []int{64, 128} {
		b.Run(fmt.Sprintf("ring/%dx%d", side, side), func(b *testing.B) {
			s := gen.Hollow(side, side)
			g := core.Default()
			eng := fsync.New(s, g, fsync.Config{MaxRounds: 0})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.Step(); err != nil {
					b.Fatal(err)
				}
				if eng.Gathered() {
					b.StopTimer()
					eng = fsync.New(s, core.Default(), fsync.Config{})
					b.StartTimer()
				}
			}
		})
	}
}

// BenchmarkSweep measures the experiment-sweep subsystem end to end: a
// small grid fanned out across the runner's worker pool. Per-op time is the
// wall-clock of the whole grid, so it shrinks with available CPUs.
func BenchmarkSweep(b *testing.B) {
	jobs, err := sweep.Spec{
		Workloads: []string{"line", "hollow", "blob"},
		Sizes:     []int{64, 128},
		Seeds:     []int64{1, 2},
	}.Jobs()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := sweep.Runner{}.Run(jobs)
		for _, r := range results {
			if r.Err != "" {
				b.Fatalf("job %+v failed: %s", r.Job, r.Err)
			}
		}
	}
}

// BenchmarkContourTracing measures the outer-boundary tracing that the
// quasi line tests use as an oracle.
func BenchmarkContourTracing(b *testing.B) {
	s := gen.RandomBlob(600, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.OuterContour()
	}
}

// BenchmarkAblation is experiment E18: the paper's constants (R=20, L=22)
// against the §5.3 "easy case" constants (R=11, L=13) — smaller constants
// still gather, with different round constants.
func BenchmarkAblation(b *testing.B) {
	configs := []struct{ r, l int }{{20, 22}, {11, 13}}
	for _, cfg := range configs {
		p := core.Defaults()
		p.Radius, p.L = cfg.r, cfg.l
		if p.MergeMax > p.Radius-1 {
			p.MergeMax = p.Radius - 1
		}
		if p.SeqStop > p.Radius-2 {
			p.SeqStop = p.Radius - 2
		}
		if p.SeqStop >= p.L-1 {
			p.SeqStop = p.L - 2
		}
		b.Run(fmt.Sprintf("R=%d,L=%d/hollow-160", cfg.r, cfg.l), func(b *testing.B) {
			benchGather(b, func() *swarm.Swarm { return gen.Hollow(41, 41) }, p)
		})
	}
}

// BenchmarkPipelining is experiment E15: gathering a large ring where the
// linear bound depends on run pipelining.
func BenchmarkPipelining(b *testing.B) {
	benchGather(b, func() *swarm.Swarm { return gen.Hollow(56, 56) }, core.Defaults())
}

// BenchmarkLowerBound is experiment E20: the line workload that meets the
// diameter lower bound exactly.
func BenchmarkLowerBound(b *testing.B) {
	for _, n := range []int{128, 256} {
		b.Run(fmt.Sprintf("line/n=%d", n), func(b *testing.B) {
			benchGather(b, func() *swarm.Swarm { return gen.Line(n) }, core.Defaults())
		})
	}
}

// BenchmarkSessionObserver measures one observed engine round through the
// session event API against the bare unobserved round. The event payload
// borrows session-owned scratch (see gridgather.Event), so the observer
// path must report the same allocs/op as the bare path — zero in steady
// state. TestObserverPathAllocationFree asserts the same bound; this benchmark
// quantifies the time cost.
func BenchmarkSessionObserver(b *testing.B) {
	for _, observed := range []bool{false, true} {
		name := "bare"
		if observed {
			name = "observed"
		}
		b.Run(name, func(b *testing.B) {
			cells, err := gridgather.Workload("hollow", 2048)
			if err != nil {
				b.Fatal(err)
			}
			newSim := func() *gridgather.Simulation {
				sim, err := gridgather.New(cells)
				if err != nil {
					b.Fatal(err)
				}
				if observed {
					sim.Subscribe(gridgather.AllEvents, func(ev gridgather.Event) {
						if len(ev.Robots) == 0 {
							b.Fatal("empty event payload")
						}
					})
				}
				return sim
			}
			sim := newSim()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sim.Step(); err != nil {
					b.Fatal(err)
				}
				if sim.Status().Gathered {
					b.StopTimer()
					sim = newSim()
					b.StartTimer()
				}
			}
		})
	}
}

// BenchmarkPublicAPI measures the end-to-end public entry point: New plus
// Run to completion.
func BenchmarkPublicAPI(b *testing.B) {
	cells, err := gridgather.Workload("blob", 150)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := gridgather.New(cells)
		if err != nil {
			b.Fatal(err)
		}
		if res := sim.Run(context.Background()); res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// BenchmarkNew measures building a session from a 2^16 blob: the cells in
// canonical order and the same cells shuffled, which New must sort.
func BenchmarkNew(b *testing.B) {
	cells, err := gridgather.Workload("blob", 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	shuffled := slices.Clone(cells)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	for _, in := range []struct {
		name  string
		cells []gridgather.Point
	}{{"canonical", cells}, {"shuffled", shuffled}} {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := gridgather.New(in.cells); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
