package main

import (
	"math/rand"
	"runtime"
	"time"

	"gridgather"
	"gridgather/internal/fsync"
)

// gather-mid: full single-threaded gathers of a seeded corpus of mid-size
// swarms (n ≈ 1.0k–1.5k). At this size quiescence skips almost nothing on the
// compact families, so core's Compute and fsync's resolve/commit dominate;
// line and staircase keep a mostly quiescent share in the mix.

// midFamily is one corpus member: a family at a size.
type midFamily struct {
	name string
	n    int
}

type midPlan struct {
	corpus      []midFamily
	warmup      int // rounds stepped in set-up (paid by every session)
	passes      int // measured gathers of the whole corpus
	extraSetups int // set-up-only repetitions, for a steadier setup_s
}

func planGatherMid(p params) midPlan {
	if p.tiny {
		return midPlan{
			corpus: []midFamily{{"solid", 36}, {"hollow", 40}, {"blob", 40}, {"line", 40}},
			warmup: 4, passes: 1, extraSetups: 1,
		}
	}
	return midPlan{
		corpus: []midFamily{
			{"solid", 1156}, {"hollow", 1024}, {"blob", 1200}, {"tree", 1200},
			{"clusters", 1200}, {"spiral", 1200}, {"line", 1500}, {"staircase", 1500},
		},
		// Two round periods (L = 22): the first rounds compute every robot.
		warmup: 44,
		// One pass gathers the corpus in 2–3.5 s on a 2-CPU x86 box.
		// At least three passes, for corpusWork's median.
		passes:      max(3, (p.seconds+1)/3),
		extraSetups: 5,
	}
}

func runGatherMid(p params) (result, error) {
	pl := planGatherMid(p)
	rng := rand.New(rand.NewSource(p.seed))
	corpus := make([]input, len(pl.corpus))
	for i, f := range pl.corpus {
		corpus[i] = makeInput(rng, f.name, f.n)
	}
	resetPeakRSS()
	rec := newRecorder()
	var mm *memMeter
	if p.traced {
		mm = &memMeter{}
	}
	u := midUntraced(corpus, pl, rec, mm)
	if !p.traced {
		return untracedResult(u), nil
	}
	layer := map[string]float64{}
	layer["gridgather.new_ms"], layer["gridgather.warmup_ms"] = setupSpans(rec)
	mm.layerMetrics(len(u.ops), layer)
	t := midTraced(corpus, pl, rec, layer)
	return tracedResult("gather-mid", p, u, t, layer, rec), nil
}

// midSetup builds a session per corpus member and steps it through the
// warm-up: the set-up a user pays per session. It is timed as one sample.
func midSetup(corpus []input, pl midPlan, rec *recorder, rep int64, ph *phase) []*gridgather.Simulation {
	runtime.GC()
	sims := make([]*gridgather.Simulation, len(corpus))
	start := time.Now()
	for i, in := range corpus {
		sim, err := timedSetup(rec, rep, in, pl.warmup, gridgather.WithWorkers(1))
		if err != nil {
			ph.failf("%s: set-up: %v", in.family, err)
			return nil
		}
		sims[i] = sim
	}
	ph.setup = append(ph.setup, time.Since(start))
	return sims
}

// midUntraced gathers the corpus pl.passes times through the public
// session API, timing every Step.
func midUntraced(corpus []input, pl midPlan, rec *recorder, mm *memMeter) *phase {
	ph := &phase{}
	times := make([][]time.Duration, len(corpus))
	rep := int64(0)
	for ; rep < int64(pl.extraSetups); rep++ {
		if midSetup(corpus, pl, rec, rep, ph) == nil {
			return ph
		}
	}
	for pass := 0; pass < pl.passes; pass++ {
		sims := midSetup(corpus, pl, rec, rep, ph)
		rep++
		if sims == nil {
			return ph
		}
		runtime.GC()
		var c counters
		mm.begin()
		for i, sim := range sims {
			var gather time.Duration
			for !sim.Status().Done {
				ph.attempted++
				t := time.Now()
				err := sim.Step()
				d := time.Since(t)
				ph.ops = append(ph.ops, d)
				gather += d
				if err != nil {
					ph.failed++
					break
				}
			}
			times[i] = append(times[i], gather)
			res := sim.Result()
			if !res.Gathered || res.Err != nil {
				ph.failf("%s: gather ended gathered=%v err=%v", corpus[i].family, res.Gathered, res.Err)
			}
			c.add(sessionCounters(sim))
		}
		mm.end()
		checkPass(ph, pass, c)
	}
	ph.work = corpusWork(times)
	ph.peakMB = peakRSSMB()
	return ph
}

// corpusWork is the time to gather the corpus: the sum over its members of
// the median over passes of the member's gather time, so a burst of
// interference from other tenants of the host during one pass does not
// move it.
func corpusWork(times [][]time.Duration) time.Duration {
	var sum time.Duration
	for _, ts := range times {
		sum += median(ts)
	}
	return sum
}

// checkPass records the first pass's counters and demands that every later
// pass reproduces them (the simulation is deterministic).
func checkPass(ph *phase, pass int, c counters) {
	if pass == 0 {
		ph.sim, ph.rounds = c, c.Rounds
	} else if c != ph.sim {
		ph.failf("pass %d simulated %+v, pass 0 %+v", pass, c, ph.sim)
	}
}

// midTraced repeats the measured passes at the fsync layer, with the
// paper's algorithm behind a compute clock and a span per Step.
func midTraced(corpus []input, pl midPlan, rec *recorder, layer map[string]float64) *phase {
	ph := &phase{}
	times := make([][]time.Duration, len(corpus))
	st := &stepTracer{rec: rec}
	clocks := make([]*computeClock, 0, len(corpus)*pl.passes)
	op := int64(0)
	for pass := 0; pass < pl.passes; pass++ {
		type member struct {
			eng    *fsync.Engine
			clock  *computeClock
			budget fsync.Budget
		}
		ms := make([]member, len(corpus))
		for i, in := range corpus {
			eng, clock, budget := tracedEngine(in, rec, 1, false)
			if err := warmEngine(eng, clock, pl.warmup); err != nil {
				ph.failf("%s: warm-up: %v", in.family, err)
				return ph
			}
			ms[i] = member{eng, clock, budget}
			clocks = append(clocks, clock)
		}
		runtime.GC()
		var c counters
		for i, m := range ms {
			var gather time.Duration
			for !m.eng.Gathered() {
				if m.eng.Round() >= m.budget.MaxRounds {
					ph.failed++
					ph.failf("%s: round limit %d", corpus[i].family, m.budget.MaxRounds)
					break
				}
				ph.attempted++
				d, err := st.step(m.eng, m.clock, op)
				op++
				ph.ops = append(ph.ops, d)
				gather += d
				if err != nil {
					ph.failed++
					ph.failf("%s: %v", corpus[i].family, err)
					break
				}
			}
			times[i] = append(times[i], gather)
			c.add(engineCounters(m.eng))
		}
		checkPass(ph, pass, c)
	}
	ph.work = corpusWork(times)
	st.layerMetrics(layer)
	mergeClocks(clocks).layerMetrics(layer)
	return ph
}

// mergeClocks sums the lifetime totals of several compute clocks.
func mergeClocks(cs []*computeClock) *computeClock {
	sum := &computeClock{}
	for _, c := range cs {
		sum.calls += c.calls
		sum.sumNs += c.sumNs
		sum.rounds += c.rounds
	}
	return sum
}
