package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"gridgather"
	"gridgather/internal/core"
	"gridgather/internal/fsync"
	"gridgather/internal/gen"
	"gridgather/internal/grid"
	"gridgather/internal/swarm"
)

// Inputs come from internal/gen and are made before any timed region. The
// seed picks the random families' shapes and a translation of every
// shape, so deterministic families differ between seeds too (the world's
// 64×64 chunk grid sees them at another alignment) while the amount of
// work stays nearly the same.

// input is one generated swarm.
type input struct {
	family string
	cells  []grid.Point
}

// points returns the cells as the public API takes them.
func (in input) points() []gridgather.Point {
	out := make([]gridgather.Point, len(in.cells))
	for i, c := range in.cells {
		out[i] = gridgather.Point{X: c.X, Y: c.Y}
	}
	return out
}

// swarm returns the cells as the engine takes them.
func (in input) swarm() *swarm.Swarm { return swarm.New(in.cells...) }

// makeInput builds family at about n robots, translated by a seed-derived
// offset.
func makeInput(rng *rand.Rand, family string, n int) input {
	var sw *swarm.Swarm
	for _, w := range gen.SeededCatalog() {
		if w.Name == family {
			sw = w.Build(n, rng.Int63())
			break
		}
	}
	if sw == nil {
		panic(fmt.Sprintf("perfbench: unknown family %q", family))
	}
	return shift(rng, family, sw.Cells())
}

// shift translates cells by a random offset of up to ±4096 per axis.
func shift(rng *rand.Rand, family string, cells []grid.Point) input {
	d := grid.Pt(rng.Intn(8193)-4096, rng.Intn(8193)-4096)
	out := make([]grid.Point, len(cells))
	for i, c := range cells {
		out[i] = c.Add(d)
	}
	return input{family: family, cells: out}
}

// upscale replaces every cell by a 2×2 block: a connected swarm four
// times the size with the same outline. RandomBlob's generator is
// quadratic in the frontier, so an n=2^16 blob is grown at 2^14 and
// upscaled (about 2 s of generation per run instead of 20 s).
func upscale(cells []grid.Point) []grid.Point {
	out := make([]grid.Point, 0, 4*len(cells))
	for _, c := range cells {
		for _, d := range []grid.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 1}} {
			out = append(out, c.Scale(2).Add(d))
		}
	}
	return out
}

// engineConfig is the fsync configuration gridgather.New builds for an
// n-robot session under FSYNC without faults (the defaults). The budget's
// MaxRounds stays with the caller, as it does with the session.
func engineConfig(n, workers int, checkConn bool) (fsync.Config, fsync.Budget) {
	budget := fsync.DefaultBudget(n)
	return fsync.Config{
		NoMergeLimit:      budget.NoMergeLimit,
		CheckConnectivity: checkConn,
		Workers:           workers,
	}, budget
}

// tracedEngine builds at the fsync layer the engine gridgather.New builds
// for the paper's algorithm, with the algorithm behind a compute clock.
func tracedEngine(in input, rec *recorder, workers int, checkConn bool) (*fsync.Engine, *computeClock, fsync.Budget) {
	cfg, budget := engineConfig(len(in.cells), workers, checkConn)
	alg, clock := timeCompute(core.Default(), rec, len(in.cells))
	return fsync.New(in.swarm(), alg, cfg), clock, budget
}

// timedSetup runs gridgather.New and the warm-up rounds under
// gridgather.new and gridgather.warmup spans. The spans are two clock
// reads, so untraced phases record them too; they cover set-up only.
func timedSetup(rec *recorder, rep int64, in input, warmup int, opts ...gridgather.Option) (*gridgather.Simulation, error) {
	cells := in.points()
	t0 := rec.now()
	sim, err := gridgather.New(cells, opts...)
	t1 := rec.now()
	if err != nil {
		return nil, err
	}
	if _, err := sim.StepN(warmup); err != nil && !errors.Is(err, gridgather.ErrDone) {
		return nil, err
	}
	t2 := rec.now()
	rec.add(span{Op: rep, Name: "gridgather.new", Start: t0, End: t1})
	rec.add(span{Op: rep, Name: "gridgather.warmup", Start: t1, End: t2})
	return sim, nil
}

// setupSpans returns the median over set-up repetitions of the summed
// gridgather.new and gridgather.warmup time per repetition, in ms.
func setupSpans(rec *recorder) (newMs, warmMs float64) {
	sum := func(name string) float64 {
		per := map[int64]time.Duration{}
		rec.mu.Lock()
		for _, s := range rec.spans {
			if s.Name == name {
				per[s.Op] += s.dur()
			}
		}
		rec.mu.Unlock()
		ds := make([]time.Duration, 0, len(per))
		for _, d := range per {
			ds = append(ds, d)
		}
		return millis(median(ds))
	}
	return sum("gridgather.new"), sum("gridgather.warmup")
}

// warmEngine steps eng through the set-up rounds. Their Compute calls are
// set-up, not the measured phase, so the clock drops them.
func warmEngine(eng *fsync.Engine, clock *computeClock, rounds int) error {
	for r := 0; r < rounds && !eng.Gathered(); r++ {
		err := eng.Step()
		clock.next.Store(0)
		if err != nil {
			return err
		}
	}
	return nil
}

// engineCounters reads the simulated counters of an fsync engine.
func engineCounters(eng *fsync.Engine) counters {
	qs := eng.QuiesceStats()
	return counters{Rounds: eng.Round(), Merges: eng.Merges(), Moves: eng.Moves(), QComputed: qs.Computed, QSkipped: qs.Skipped}
}

// sessionCounters reads the simulated counters of a session.
func sessionCounters(sim *gridgather.Simulation) counters {
	m := sim.Metrics()
	return counters{Rounds: m.Rounds, Merges: m.Merges, Moves: m.Moves, QComputed: m.QuiesceComputed, QSkipped: m.QuiesceSkipped}
}
