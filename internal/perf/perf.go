// Package perf measures the engine's per-round cost per workload and size,
// and serializes the results as the repository's benchmark JSON
// (BENCH_engine.json at the repo root is the committed baseline;
// cmd/gatherbench -bench-json regenerates it).
//
// The harness times Engine.Step directly — warmed-up, fixed round counts,
// allocation deltas from runtime.MemStats — instead of going through `go
// test -bench`, so CLI callers control the measurement budget and the
// emitted JSON is stable across tooling.
package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"text/tabwriter"
	"time"

	"gridgather/internal/core"
	"gridgather/internal/fsync"
	"gridgather/internal/gen"
	"gridgather/internal/grid"
	"gridgather/internal/swarm"
	"gridgather/internal/world"
)

// Entry is one measured (workload, n) cell.
type Entry struct {
	Workload string `json:"workload"`
	N        int    `json:"n"`
	// Conn marks connectivity-check microbench entries ("incr" or "bfs"):
	// NsPerRound is then the cost of the query on one sparse-movement
	// round — a single robot hop through the round protocol (untimed),
	// then one Connected ("incr") or ConnectedBFS ("bfs") query — with no
	// engine attached. Empty for engine Step entries.
	Conn string `json:"conn,omitempty"`
	// Quiesce tags engine Step entries measured under an explicit
	// quiescence mode ("on" = the dirty-region fast path, "off" = every
	// robot recomputes every round). Empty when the run did not sweep the
	// quiesce axis (entries then measure the engine default, which is
	// "on").
	Quiesce string `json:"quiesce,omitempty"`
	// NsPerRound is the mean wall-clock cost of one Engine.Step.
	NsPerRound float64 `json:"ns_per_round"`
	// BytesPerRound and AllocsPerRound are heap-allocation deltas per
	// round (runtime.MemStats, so they include everything the round
	// touches).
	BytesPerRound  float64 `json:"bytes_per_round"`
	AllocsPerRound float64 `json:"allocs_per_round"`
	// HeapBytesPerRobot is the engine's resident heap per robot: HeapInuse
	// after a GC once the warm-up rounds have run, less HeapInuse after a
	// GC before the engine was built, divided by N. Empty for connectivity
	// entries.
	HeapBytesPerRobot float64 `json:"heap_bytes_per_robot,omitempty"`
	// GatherRounds is the number of rounds a full simulation of this
	// workload takes at this n. 0 when the gather pass was skipped.
	GatherRounds int `json:"gather_rounds,omitempty"`
}

// Report is the bench JSON document.
type Report struct {
	// Note records the measurement configuration for human readers.
	Note    string  `json:"note,omitempty"`
	Entries []Entry `json:"entries"`
}

// Config controls a measurement run.
type Config struct {
	// Ns are the approximate robot counts every workload is measured at
	// (default 2048) — the scaling grid (e.g. 2^14, 2^17, 2^20).
	Ns []int
	// Workloads are seeded-catalog family names (default hollow, solid,
	// line, blob — the acceptance workloads).
	Workloads []string
	// WarmupRounds and MeasureRounds bound the per-cell cost (defaults
	// 30 and 150).
	WarmupRounds, MeasureRounds int
	// Repeats measures every cell this many times and keeps the fastest
	// (default 1). The minimum is the standard noise filter for wall-clock
	// benches: interference only ever slows a run down, so the fastest
	// repeat is the closest estimate of the true cost.
	Repeats int
	// Gather also runs one full simulation per workload to record
	// GatherRounds (skipped in quick CI runs).
	Gather bool
	// ConnCheck adds the connectivity microbench entries per (workload,
	// n): the cost of a sparse-movement round — one robot hop plus one
	// Connected query — under the incremental layer ("incr") and the full
	// scratch BFS ("bfs"). The ratio is the headline of the incremental
	// connectivity layer.
	ConnCheck bool
	// Quiesce measures every engine Step cell twice — quiescence fast path
	// ("on") versus full recomputation ("off", the algorithm wrapped in
	// recomputeAll) — tagging the entries accordingly. The on/off ratio is
	// the headline of the quiescence layer.
	Quiesce bool
}

func (c Config) withDefaults() Config {
	if len(c.Ns) == 0 {
		c.Ns = []int{2048}
	}
	if c.Repeats <= 0 {
		c.Repeats = 1
	}
	if len(c.Workloads) == 0 {
		c.Workloads = []string{"hollow", "solid", "line", "blob"}
	}
	if c.WarmupRounds <= 0 {
		c.WarmupRounds = 30
	}
	if c.MeasureRounds <= 0 {
		c.MeasureRounds = 150
	}
	return c
}

// build returns the named seeded-catalog workload at size n.
func build(name string, n int) (*swarm.Swarm, error) {
	w, ok := gen.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("perf: unknown workload %q", name)
	}
	return w.Build(n, 42), nil
}

// measureBest returns the fastest of repeats calls to one (keeping that
// repeat's allocation figures too).
func measureBest(repeats int, one func() (Entry, error)) (Entry, error) {
	best, err := one()
	if err != nil {
		return Entry{}, err
	}
	for i := 1; i < repeats; i++ {
		e, err := one()
		if err != nil {
			return Entry{}, err
		}
		if e.NsPerRound < best.NsPerRound {
			best = e
		}
	}
	return best, nil
}

// measureConn times sparse-movement connectivity rounds over the swarm's
// world without an engine: each round moves the canonical-order corner
// robot one cell south, out of the swarm, or back, through the round
// protocol with every other robot staying (a hop that dirties one or two
// chunks), then runs one query: Connected, or the scratch ConnectedBFS
// when bfs is set. Only the query is timed. This isolates what the
// incremental layer replaces: the per-round connectivity check cost on
// rounds where almost nothing moved.
func measureConn(s *swarm.Swarm, bfs bool, warmup, rounds int) (Entry, error) {
	d := world.NewDense(s.Cells(), false)
	query := d.Connected
	if bfs {
		query = d.ConnectedBFS
	}
	corner := d.Cells()[0]
	out := corner.Add(grid.South)
	var queryTime time.Duration
	i := 0
	round := func() {
		from, to := corner, out
		if i++; i%2 == 0 {
			from, to = out, corner
		}
		d.BeginRound()
		for _, p := range d.Cells() {
			dst := p
			if p == from {
				dst = to
			}
			d.Arrive(p, dst)
		}
		d.BeginSleep()
		d.Commit()
		start := time.Now()
		query()
		queryTime += time.Since(start)
	}
	for j := 0; j < warmup; j++ {
		round()
	}
	queryTime = 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for j := 0; j < rounds; j++ {
		round()
	}
	runtime.ReadMemStats(&after)
	mode := "incr"
	if bfs {
		mode = "bfs"
	}
	return Entry{
		N:              s.Len(),
		Conn:           mode,
		NsPerRound:     float64(queryTime.Nanoseconds()) / float64(rounds),
		BytesPerRound:  float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds),
		AllocsPerRound: float64(after.Mallocs-before.Mallocs) / float64(rounds),
	}, nil
}

// recomputeAll runs an algorithm without its fsync.Periodic declaration,
// so the engine turns quiescence off and every robot recomputes every
// round.
type recomputeAll struct{ fsync.Algorithm }

// measure times MeasureRounds engine steps after warmup, restarting the
// simulation if it gathers mid-measurement (it does not at bench sizes).
// fullRecompute runs the algorithm in recomputeAll.
func measure(s *swarm.Swarm, warmup, rounds int, fullRecompute bool) (Entry, error) {
	newEngine := func() *fsync.Engine {
		var alg fsync.Algorithm = core.Default()
		if fullRecompute {
			alg = recomputeAll{alg}
		}
		return fsync.New(s, alg, fsync.Config{})
	}
	var base, warm runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)
	eng := newEngine()
	step := func() error {
		if eng.Gathered() {
			eng = newEngine()
		}
		return eng.Step()
	}
	for i := 0; i < warmup; i++ {
		if err := step(); err != nil {
			return Entry{}, err
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if err := step(); err != nil {
			return Entry{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return Entry{
		N:                 s.Len(),
		NsPerRound:        float64(elapsed.Nanoseconds()) / float64(rounds),
		BytesPerRound:     float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds),
		AllocsPerRound:    float64(after.Mallocs-before.Mallocs) / float64(rounds),
		HeapBytesPerRobot: (float64(warm.HeapInuse) - float64(base.HeapInuse)) / float64(s.Len()),
	}, nil
}

// Run measures every (workload, n) cell of the config, plus the
// connectivity microbench pair per (workload, n) when ConnCheck is set.
func Run(cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	rep := Report{Note: fmt.Sprintf(
		"engine Step cost: n≈%v, %d measured rounds after %d warmup, best of %d, GOMAXPROCS=%d",
		cfg.Ns, cfg.MeasureRounds, cfg.WarmupRounds, cfg.Repeats, runtime.GOMAXPROCS(0))}
	for _, n := range cfg.Ns {
		for _, name := range cfg.Workloads {
			s, err := build(name, n)
			if err != nil {
				return Report{}, err
			}
			gatherRounds := 0
			if cfg.Gather {
				eng := fsync.New(s, core.Default(), fsync.Config{
					MaxRounds: fsync.DefaultBudget(s.Len()).MaxRounds,
				})
				res := eng.Run()
				if res.Err != nil || !res.Gathered {
					return Report{}, fmt.Errorf("perf: %s gather run failed: %+v", name, res)
				}
				gatherRounds = res.Rounds
			}
			// Without the quiesce axis, one untagged entry measures the
			// engine default (the quiescence fast path); with
			// it, a tagged on/off pair measures the fast path against
			// pinned full recomputation.
			modes := []string{""}
			if cfg.Quiesce {
				modes = []string{"on", "off"}
			}
			for _, mode := range modes {
				e, err := measureBest(cfg.Repeats, func() (Entry, error) {
					return measure(s, cfg.WarmupRounds, cfg.MeasureRounds, mode == "off")
				})
				if err != nil {
					return Report{}, fmt.Errorf("perf: %s/n=%d: %w", name, n, err)
				}
				e.Workload = name
				e.Quiesce = mode
				e.GatherRounds = gatherRounds
				rep.Entries = append(rep.Entries, e)
			}
			if cfg.ConnCheck {
				for _, bfs := range []bool{false, true} {
					e, err := measureBest(cfg.Repeats, func() (Entry, error) {
						return measureConn(s, bfs, cfg.WarmupRounds, cfg.MeasureRounds)
					})
					if err != nil {
						return Report{}, fmt.Errorf("perf: %s/n=%d/conn: %w", name, n, err)
					}
					e.Workload = name
					rep.Entries = append(rep.Entries, e)
				}
			}
		}
	}
	return rep, nil
}

// WriteJSON writes the report to path (pretty-printed, trailing newline).
func WriteJSON(rep Report, path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// WriteTable renders the report for terminals.
func WriteTable(w io.Writer, rep Report) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tn\tconn\tquiesce\tms/round\tKB/round\tallocs/round\theap B/robot\tgather rounds")
	for _, e := range rep.Entries {
		gather := ""
		if e.GatherRounds > 0 {
			gather = fmt.Sprintf("%d", e.GatherRounds)
		}
		heap := ""
		if e.Conn == "" {
			heap = fmt.Sprintf("%.1f", e.HeapBytesPerRobot)
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%.4f\t%.1f\t%.1f\t%s\t%s\n",
			e.Workload, e.N, e.Conn, e.Quiesce,
			e.NsPerRound/1e6, e.BytesPerRound/1024, e.AllocsPerRound, heap, gather)
	}
	return tw.Flush()
}
