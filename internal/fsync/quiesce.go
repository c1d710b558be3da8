// Quiescence-driven rounds: the engine half of the dirty-region fast path
// (the world half is internal/world/quiesce.go). The paper's strategy
// moves only boundary robots, so a dense swarm's interior recomputes
// "stay" every round; this layer replays those cached verdicts and makes
// per-round compute cost scale with the moving frontier instead of n.
//
// Division of labor: the world marks every write a view can observe
// (internal/world/quiesce.go), and the engine marks nothing. Per round:
//
//	activate  Dense.Crash marks each newly crashed cell (the crash is
//	          visible to this round's views)
//	compute   per activation, stageCompute asks Dense.QuiesceSkip and
//	          either replays Stay or computes; a computed robot with a
//	          noise-free view records its verdict via Dense.QuiesceNote
//	resolve   the world's round protocol marks the writes the occupancy
//	          diff can't see: cells left by run carriers, merges, and
//	          kept, adopted or delivered runs
//	commit    Dense.noteEdits dilates every occupancy change among the
//	          rows the round wrote by the view radius into the dirty
//	          planes for the next round
//
// The skip is exact, not approximate: the differential suite steps a
// quiescent engine in lockstep with one running the same algorithm
// without its Periodic declaration (so every robot recomputes) and
// demands bit identity (cells, slots, run states + IDs, clocks, counters,
// final Result) across the workload corpus × scheduler families × fault
// plans.
//
//gather:deterministic
package fsync

// QuiesceStats reports the quiescence layer's lifetime counters.
type QuiesceStats struct {
	// Enabled reports whether the fast path is active (the algorithm is
	// Periodic and StrictViews is off).
	Enabled bool
	// Computed counts activations that ran Look+Compute; Skipped counts
	// activations that replayed the cached quiescent action.
	Computed, Skipped int
}

// Ratio returns the fraction of activations skipped (0 when none ran).
func (s QuiesceStats) Ratio() float64 {
	if t := s.Computed + s.Skipped; t > 0 {
		return float64(s.Skipped) / float64(t)
	}
	return 0
}

// QuiesceStats returns the engine's quiescence counters.
func (e *Engine) QuiesceStats() QuiesceStats {
	return QuiesceStats{Enabled: e.qOn, Computed: e.qComputed, Skipped: e.qSkipped}
}

// initQuiesce enables the quiescence fast path when it is sound: the
// algorithm declares a round period (Periodic) small enough for the
// 32-bit verdict masks, its radius fits the dirty planes' dilation window,
// and views are not strict (a skipped robot proves no locality, so
// StrictViews must see every compute). An algorithm that does not
// implement Periodic therefore recomputes every robot every round; the
// quiescence suite builds its reference engine that way. Shared by New and
// NewRestored; restored engines start with empty masks, which is always
// sound — every robot recomputes until fresh verdicts accumulate.
func (e *Engine) initQuiesce() {
	if e.cfg.StrictViews {
		return
	}
	p, ok := e.alg.(Periodic)
	if !ok {
		return
	}
	period := p.RoundPeriod()
	if period < 1 || period > 32 {
		return
	}
	if r := e.alg.Radius(); r >= 1 && r <= 63 {
		e.qOn = true
		e.qPeriod = period
		e.w.EnableQuiescence(r)
	}
}
