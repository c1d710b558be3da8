// Quiescence-driven rounds: the engine half of the dirty-region fast path
// (the world half is internal/world/quiesce.go). The paper's strategy
// moves only boundary robots, so a dense swarm's interior recomputes
// "stay" every round; this layer replays those cached verdicts and makes
// per-round compute cost scale with the moving frontier instead of n.
//
// Division of labor: the world marks every write a view can observe
// (internal/world/quiesce.go), and the engine marks nothing. Per round:
//
//	activate   Dense.Crash marks each newly crashed cell (the crash is
//	           visible to this round's views)
//	compute    computeRange consults Dense.QuiesceSkip per activation and
//	           records each robot's disposition in qFlags (skip / noisy)
//	post-pass  quiescePost records clean verdicts via QuiesceNote
//	resolve    the world's round protocol marks the writes the occupancy
//	           diff can't see: cells left by run carriers, merges, and
//	           kept, adopted or delivered runs
//	commit     Dense.noteRoundDiff dilates every occupancy change by the
//	           view radius into the dirty planes for the next round
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

// qFlags disposition bits, written per activation index by computeRange
// and drained by quiescePost.
const (
	qfSkip  = 1 << iota // replayed the cached quiescent Stay
	qfNoisy             // view was noise-perturbed; verdict not cacheable
)

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

// quiescePost is the serial post-compute pass: one sweep over the round's
// disposition bytes. Skipped robots cost a counter bump; each computed
// robot with a clean (noise-free) view records its verdict, consuming its
// cell's dirty bit. A robot carrying runs is never quiescent: its runs
// age, glide or hand off this round. Runs are unchanged until Resolve, so
// the world still answers HasRuns for the round's start.
//
//gather:hotpath
func (e *Engine) quiescePost() {
	if !e.qOn {
		return
	}
	for i := range e.acts {
		f := e.qFlags[i]
		if f&qfSkip != 0 {
			e.qSkipped++
			continue
		}
		e.qComputed++
		if f&qfNoisy == 0 {
			from, slot := e.order[i], e.orderSlots[i]
			e.w.QuiesceNote(from, slot, e.localRound(from)%e.qPeriod, !e.w.HasRuns(slot) && e.acts[i].quiescent())
		}
	}
}
