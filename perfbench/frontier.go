package main

import (
	"math/rand"
	"runtime"
	"time"

	"gridgather"
	"gridgather/internal/gen"
)

// frontier: steady-state rounds of one n ≈ 2^17 solid swarm with two
// workers and connectivity checking on. About 97% of Computes are skipped
// by quiescence, so a round costs the O(n) residue in fsync and world plus
// the incremental connectivity check.

type frontierPlan struct {
	side      int // the solid square is about side × side
	workers   int
	warmup    int // rounds stepped in set-up
	setupReps int
	steps     int // measured steady-state rounds
}

func planFrontier(p params) frontierPlan {
	if p.tiny {
		return frontierPlan{side: 64, workers: 2, warmup: 24, setupReps: 2, steps: 8}
	}
	return frontierPlan{
		side: 362, workers: 2,
		warmup:    44, // two round periods (L = 22)
		setupReps: 3,
		// A steady-state round takes 15–25 ms on a 2-CPU x86 box.
		steps: 40 * p.seconds,
	}
}

// frontierInput is a solid rectangle of about side² robots whose aspect
// and position come from the seed.
func frontierInput(rng *rand.Rand, side int) input {
	w := side - 4 + rng.Intn(9)
	h := (side*side + w/2) / w
	return shift(rng, "solid", gen.Solid(w, h).Cells())
}

func runFrontier(p params) (result, error) {
	pl := planFrontier(p)
	in := frontierInput(rand.New(rand.NewSource(p.seed)), pl.side)
	resetPeakRSS()
	rec := newRecorder()
	var mm *memMeter
	if p.traced {
		mm = &memMeter{}
	}
	u := frontierUntraced(in, pl, rec, mm)
	if !p.traced {
		return untracedResult(u), nil
	}
	layer := map[string]float64{}
	layer["gridgather.new_ms"], layer["gridgather.warmup_ms"] = setupSpans(rec)
	mm.layerMetrics(len(u.ops), layer)
	t := frontierTraced(in, pl, rec, layer)
	return tracedResult("frontier", p, u, t, layer, rec), nil
}

func frontierUntraced(in input, pl frontierPlan, rec *recorder, mm *memMeter) *phase {
	ph := &phase{}
	var sim *gridgather.Simulation
	for rep := 0; rep < pl.setupReps; rep++ {
		sim = nil
		runtime.GC()
		start := time.Now()
		s, err := timedSetup(rec, int64(rep), in, pl.warmup,
			gridgather.WithWorkers(pl.workers), gridgather.WithConnectivityCheck(true))
		if err != nil {
			ph.failf("set-up: %v", err)
			return ph
		}
		ph.setup = append(ph.setup, time.Since(start))
		sim = s
	}
	runtime.GC()
	mm.begin()
	for i := 0; i < pl.steps; i++ {
		ph.attempted++
		t := time.Now()
		err := sim.Step()
		d := time.Since(t)
		ph.ops = append(ph.ops, d)
		if err != nil {
			ph.failed++
			ph.failf("step %d: %v", i, err)
			break
		}
	}
	mm.end()
	ph.work = blockWork(ph.ops)
	ph.peakMB = peakRSSMB()
	if st := sim.Status(); st.Done {
		ph.failf("the swarm finished (reason %q) inside the measured phase: not a steady state", st.Reason)
	}
	ph.sim = sessionCounters(sim)
	ph.rounds = ph.sim.Rounds
	return ph
}

// frontierTraced repeats the measured rounds on an equivalent fsync
// engine with the algorithm behind a compute clock.
func frontierTraced(in input, pl frontierPlan, rec *recorder, layer map[string]float64) *phase {
	ph := &phase{}
	eng, clock, _ := tracedEngine(in, rec, pl.workers, true)
	if err := warmEngine(eng, clock, pl.warmup); err != nil {
		ph.failf("warm-up: %v", err)
		return ph
	}
	runtime.GC()
	st := &stepTracer{rec: rec}
	for i := 0; i < pl.steps; i++ {
		ph.attempted++
		d, err := st.step(eng, clock, int64(i))
		ph.ops = append(ph.ops, d)
		if err != nil {
			ph.failed++
			ph.failf("step %d: %v", i, err)
			break
		}
	}
	ph.work = blockWork(ph.ops)
	ph.sim = engineCounters(eng)
	ph.rounds = ph.sim.Rounds
	st.layerMetrics(layer)
	clock.layerMetrics(layer)
	return ph
}
