package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one printed metric. The lists below must match
// BENCHMARK.json at the repository root exactly (TestMetricTablesMatchManifest).
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of the library or the daemon sees; every
// workload prints all of them with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"work_s", "s", "lower"},
	{"op_ms_p50", "ms", "lower"},
	{"op_ms_p90", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"sim_rounds", "count", "lower"},
}

// serveRoutes are the gatherd request kinds the gatherd-mixed client sends.
var serveRoutes = []string{"step", "status", "snapshot", "create", "delete"}

// perLayer is printed by every traced run. A layer a workload does not
// reach reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"core.compute_calls", "count/round", "lower"},
		{"core.compute_ms", "ms/round", "lower"},
		{"core.compute_ns_per_call", "ns", "lower"},
		{"fsync.step_ms", "ms", "lower"},
		{"fsync.self_ms", "ms", "lower"},
		{"fsync.quiesce_skip_ratio", "ratio", "higher"},
		{"fsync.quiesce_computed", "count", "lower"},
		{"fsync.quiesce_skipped", "count", "higher"},
		{"fsync.resume_computed", "count", "lower"},
		{"fsync.resume_robots", "count", "lower"},
		{"world.conn_queries", "count/round", "lower"},
		{"world.conn_fallbacks", "count/round", "lower"},
		{"world.conn_relabels", "count/round", "lower"},
		{"gridgather.new_ms", "ms", "lower"},
		{"gridgather.warmup_ms", "ms", "lower"},
		{"gridgather.snapshot_ms", "ms", "lower"},
		{"gridgather.snapshot_bytes", "bytes", "lower"},
		{"gridgather.restore_ms", "ms", "lower"},
		{"gridgather.resume_step_ms", "ms", "lower"},
	}
	for _, r := range serveRoutes {
		defs = append(defs,
			metricDef{"serve.handler_ms." + r + ".p50", "ms", "lower"},
			metricDef{"serve.handler_ms." + r + ".p90", "ms", "lower"})
	}
	return append(defs,
		metricDef{"serve.transport_ms", "ms", "lower"},
		metricDef{"pool.restores_per_req", "count/req", "lower"},
		metricDef{"pool.evictions_per_req", "count/req", "lower"},
		metricDef{"pool.rejected", "count", "lower"},
		metricDef{"runtime.gc_cycles", "count", "lower"},
		metricDef{"runtime.gc_pause_ms", "ms", "lower"},
		metricDef{"runtime.alloc_bytes_per_op", "bytes", "lower"},
		metricDef{"runtime.allocs_per_op", "count", "lower"},
		metricDef{"trace.overhead", "ratio", "lower"},
	)
}()

// counters are the simulated quantities of a phase. They do not depend on
// timing, so the traced and untraced phases of one run must agree on them.
type counters struct {
	Rounds, Merges, Moves int
	QComputed, QSkipped   int
}

func (c *counters) add(o counters) {
	c.Rounds += o.Rounds
	c.Merges += o.Merges
	c.Moves += o.Moves
	c.QComputed += o.QComputed
	c.QSkipped += o.QSkipped
}

// phase is what one measured pass of a workload produced.
type phase struct {
	setup     []time.Duration // one sample per timed set-up
	work      time.Duration   // the measured phase's duration
	ops       []time.Duration // per-operation latency
	peakMB    float64         // peak RSS at the end of the measured phase
	rounds    int             // simulated rounds (sim_rounds)
	attempted int
	failed    int
	sim       counters
	problems  []string // failed output checks
}

func (p *phase) failf(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// result is one benchmark run, ready to print.
type result struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
	notes             []string // human-readable lines printed before the JSON
}

// endToEndMetrics derives the user-visible metrics of an untraced phase.
func endToEndMetrics(p *phase) map[string]float64 {
	return map[string]float64{
		"setup_s":     seconds(median(p.setup)),
		"work_s":      seconds(p.work),
		"op_ms_p50":   millis(quantile(p.ops, 0.50)),
		"op_ms_p90":   millis(quantile(p.ops, 0.90)),
		"peak_rss_mb": p.peakMB,
		"sim_rounds":  float64(p.rounds),
	}
}

// workBlocks is how many contiguous blocks blockWork cuts a phase into.
const workBlocks = 10

// blockWork estimates the duration of a measured phase of alike ops: the
// ops are cut into workBlocks contiguous blocks, and the phase takes
// len(ops) × the median block's mean op time. A burst of interference from
// other tenants of the host in a minority of blocks does not move it; a
// change that slows every op does. Fewer ops than blocks are summed.
func blockWork(ops []time.Duration) time.Duration {
	if len(ops) < workBlocks {
		var sum time.Duration
		for _, d := range ops {
			sum += d
		}
		return sum
	}
	size := len(ops) / workBlocks
	means := make([]time.Duration, workBlocks)
	for b := range means {
		lo, hi := b*size, (b+1)*size
		if b == workBlocks-1 {
			hi = len(ops)
		}
		var sum time.Duration
		for _, d := range ops[lo:hi] {
			sum += d
		}
		means[b] = sum / time.Duration(hi-lo)
	}
	return median(means) * time.Duration(len(ops))
}

// median is the 0.5 quantile.
func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

// quantile returns the q-quantile of ds by linear interpolation between
// closest ranks (0 for an empty sample).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[hi]-s[lo]))
}

// medianInt is the median of counts (0 for an empty sample).
func medianInt(xs []int) float64 {
	ds := make([]time.Duration, len(xs))
	for i, x := range xs {
		ds[i] = time.Duration(x)
	}
	return float64(median(ds))
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }

// resetPeakRSS restarts the process's resident-set high-water mark, so
// peak_rss_mb covers the program under test and not the input generator.
// Where /proc/self/clear_refs is missing the mark simply keeps running.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
