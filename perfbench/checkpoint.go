package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"gridgather"
	"gridgather/internal/core"
	"gridgather/internal/fsync"
	"gridgather/internal/gen"
)

// checkpoint: resuming a mid-run n ≈ 2^16 blob with connectivity checking
// on. One op is Snapshot → Restore → the restored session's first Step:
// the codec and the world/engine decode at scale, then a cold start with
// an empty quiescence cache and a full-BFS connectivity fallback.

type checkpointPlan struct {
	blob       int // the blob is grown at this size, then upscaled 4×
	warmup     int // rounds stepped in set-up
	setupReps  int
	ops        int
	probeEvery int // traced runs resume at the fsync layer every probeEvery ops
}

func planCheckpoint(p params) checkpointPlan {
	if p.tiny {
		return checkpointPlan{blob: 64, warmup: 4, setupReps: 2, ops: 6, probeEvery: 2}
	}
	return checkpointPlan{
		blob:      1 << 14,
		warmup:    44, // two round periods (L = 22)
		setupReps: 3,
		// An op takes 55–95 ms on a 2-CPU x86 box.
		ops:        10 * p.seconds,
		probeEvery: 10,
	}
}

var checkpointOpts = []gridgather.Option{gridgather.WithWorkers(1), gridgather.WithConnectivityCheck(true)}

func runCheckpoint(p params) (result, error) {
	pl := planCheckpoint(p)
	rng := rand.New(rand.NewSource(p.seed))
	in := shift(rng, "blob", upscale(gen.RandomBlob(pl.blob, rng.Int63()).Cells()))
	resetPeakRSS()
	rec := newRecorder()
	var mm *memMeter
	if p.traced {
		mm = &memMeter{}
	}
	u := checkpointUntraced(in, pl, rec, mm)
	if !p.traced {
		return untracedResult(u), nil
	}
	layer := map[string]float64{}
	layer["gridgather.new_ms"], layer["gridgather.warmup_ms"] = setupSpans(rec)
	mm.layerMetrics(len(u.ops), layer)
	t := checkpointTraced(in, pl, rec, layer)
	return tracedResult("checkpoint", p, u, t, layer, rec), nil
}

func checkpointUntraced(in input, pl checkpointPlan, rec *recorder, mm *memMeter) *phase {
	ph := &phase{}
	var sim *gridgather.Simulation
	for rep := 0; rep < pl.setupReps; rep++ {
		sim = nil
		runtime.GC()
		start := time.Now()
		s, err := timedSetup(rec, int64(rep), in, pl.warmup, checkpointOpts...)
		if err != nil {
			ph.failf("set-up: %v", err)
			return ph
		}
		ph.setup = append(ph.setup, time.Since(start))
		sim = s
	}
	runtime.GC()
	for i := 0; i < pl.ops; i++ {
		mm.begin()
		r, b, rt, err := resume(sim, rec, int64(i), false)
		mm.end()
		ph.attempted++
		ph.ops = append(ph.ops, rt.total())
		if err != nil || !checkResume(sim, r, b, ph, i) {
			ph.failed++
			if err != nil {
				ph.failf("op %d: %v", i, err)
			}
			break
		}
	}
	ph.work = blockWork(ph.ops)
	ph.peakMB = peakRSSMB()
	ph.sim = sessionCounters(sim)
	ph.rounds = ph.sim.Rounds
	return ph
}

// resumeTiming splits one op into its three calls.
type resumeTiming struct {
	snapshot, restore, step time.Duration
}

func (rt resumeTiming) total() time.Duration { return rt.snapshot + rt.restore + rt.step }

// resume runs one op on sim and returns the resumed session and the
// snapshot bytes. With spans, each call gets a span under one
// checkpoint.resume span.
func resume(sim *gridgather.Simulation, rec *recorder, op int64, spans bool) (*gridgather.Simulation, []byte, resumeTiming, error) {
	var rt resumeTiming
	t0 := rec.now()
	b, err := sim.Snapshot()
	t1 := rec.now()
	rt.snapshot = time.Duration(t1 - t0)
	if err != nil {
		return nil, nil, rt, err
	}
	r, err := gridgather.Restore(b, gridgather.WithWorkers(1))
	t2 := rec.now()
	rt.restore = time.Duration(t2 - t1)
	if err != nil {
		return nil, nil, rt, err
	}
	err = r.Step()
	t3 := rec.now()
	rt.step = time.Duration(t3 - t2)
	if spans {
		id := rec.reserve()
		rec.add(span{Parent: id, Op: op, Name: "gridgather.snapshot", Start: t0, End: t1})
		rec.add(span{Parent: id, Op: op, Name: "gridgather.restore", Start: t1, End: t2})
		rec.add(span{Parent: id, Op: op, Name: "gridgather.resume_step", Start: t2, End: t3})
		rec.add(span{ID: id, Op: op, Name: "checkpoint.resume", Start: t0, End: t3})
	}
	return r, b, rt, err
}

// checkResume verifies one op outside the timed region: the snapshot
// survives a second restore bit-identically, and the resumed session ends
// its first round in the state of its un-checkpointed twin — sim itself,
// which this steps once. A mismatch fails the op.
func checkResume(sim, r *gridgather.Simulation, b []byte, ph *phase, op int) bool {
	again, err := gridgather.Restore(b, gridgather.WithWorkers(1))
	if err != nil {
		ph.failf("op %d: second restore: %v", op, err)
		return false
	}
	if b2, err := again.Snapshot(); err != nil || !bytes.Equal(b, b2) {
		ph.failf("op %d: a restored session re-snapshots differently (err %v)", op, err)
		return false
	}
	if err := sim.Step(); err != nil {
		ph.failf("op %d: twin step: %v", op, err)
		return false
	}
	want, err1 := sim.Snapshot()
	got, err2 := r.Snapshot()
	if err1 != nil || err2 != nil || !bytes.Equal(want, got) {
		ph.failf("op %d: the resumed session's first round differs from its un-checkpointed twin", op)
		return false
	}
	return true
}

// checkpointTraced repeats the ops with spans. Every probeEvery ops it
// also resumes at the fsync layer — from an fsync engine kept in lockstep
// with the session — with the algorithm behind a compute clock, which
// gives the resume round's world and core numbers.
func checkpointTraced(in input, pl checkpointPlan, rec *recorder, layer map[string]float64) *phase {
	ph := &phase{}
	sim, err := timedSetup(rec, -1, in, pl.warmup, checkpointOpts...)
	if err != nil {
		ph.failf("set-up: %v", err)
		return ph
	}
	cfg, _ := engineConfig(len(in.cells), 1, true)
	twin := fsync.New(in.swarm(), core.Default(), cfg)
	for r := 0; r < pl.warmup; r++ {
		if err := twin.Step(); err != nil {
			ph.failf("twin warm-up: %v", err)
			return ph
		}
	}
	alg, clock := timeCompute(core.Default(), rec, len(in.cells))
	st := &stepTracer{rec: rec}
	var snaps, restores, steps []time.Duration
	var computed, robots, sizes []int
	runtime.GC()
	for i := 0; i < pl.ops; i++ {
		r, b, rt, err := resume(sim, rec, int64(i), true)
		ph.attempted++
		ph.ops = append(ph.ops, rt.total())
		if err != nil {
			ph.failed++
			ph.failf("op %d: %v", i, err)
			break
		}
		snaps, restores, steps = append(snaps, rt.snapshot), append(restores, rt.restore), append(steps, rt.step)
		m := r.Metrics()
		computed = append(computed, m.QuiesceComputed)
		robots = append(robots, m.Robots)
		sizes = append(sizes, len(b))
		if i%pl.probeEvery == 0 {
			if err := probeResume(twin, alg, clock, cfg, st, int64(i)); err != nil {
				ph.failf("op %d: fsync probe: %v", i, err)
			} else if st.lastCalls != m.QuiesceComputed {
				ph.failf("op %d: the fsync-layer resume computed %d robots, the session %d", i, st.lastCalls, m.QuiesceComputed)
			}
		}
		if !checkResume(sim, r, b, ph, i) {
			ph.failed++
			break
		}
		if err := twin.Step(); err != nil {
			ph.failf("twin step: %v", err)
			break
		}
	}
	ph.work = blockWork(ph.ops)
	ph.sim = sessionCounters(sim)
	ph.rounds = ph.sim.Rounds
	if tc := engineCounters(twin); tc.Rounds != ph.sim.Rounds || tc.Merges != ph.sim.Merges || tc.Moves != ph.sim.Moves {
		ph.failf("the fsync twin (%+v) drifted from the session (%+v)", tc, ph.sim)
	}
	layer["gridgather.snapshot_ms"] = millis(median(snaps))
	layer["gridgather.restore_ms"] = millis(median(restores))
	layer["gridgather.resume_step_ms"] = millis(median(steps))
	layer["gridgather.snapshot_bytes"] = medianInt(sizes)
	layer["fsync.resume_computed"] = medianInt(computed)
	layer["fsync.resume_robots"] = medianInt(robots)
	st.layerMetrics(layer)
	clock.layerMetrics(layer)
	return ph
}

// probeResume restores the twin's state into a fresh fsync engine and
// runs its first round under a traced step.
func probeResume(twin *fsync.Engine, alg fsync.Algorithm, clock *computeClock, cfg fsync.Config, st *stepTracer, op int64) error {
	eng, rest, err := fsync.NewRestored(alg, cfg, twin.AppendState(nil))
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("%d trailing snapshot bytes", len(rest))
	}
	_, err = st.step(eng, clock, op)
	return err
}
