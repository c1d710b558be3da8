package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gridgather/internal/fsync"
	"gridgather/internal/view"
	"gridgather/internal/world"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the recorder's epoch. Aggregated spans (one per round standing for
// many calls) carry the call count and the summed call time.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls,omitempty"`
	SumNs  int64  `json:"sum_ns,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; write dumps them when the run ends.
type recorder struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// reserve allocates a span ID before the span is complete, so children
// recorded elsewhere can name it as their parent.
func (r *recorder) reserve() int64 { return r.nextID.Add(1) }

// add records s, assigning an ID when it has none.
func (r *recorder) add(s span) {
	if s.ID == 0 {
		s.ID = r.reserve()
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// write dumps the spans as JSON lines to path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- core: a timing decorator around the algorithm handed to fsync.New ----

// interval is one Compute call, in recorder time.
type interval struct{ start, end int64 }

// computeClock times every Compute call of the wrapped algorithm. Calls of
// one round land in a preallocated slice (claimed with an atomic index, so
// parallel compute workers never share a slot); endRound folds them into
// one aggregated span.
type computeClock struct {
	alg   fsync.Algorithm
	rec   *recorder
	next  atomic.Int64
	ivals []interval

	calls, sumNs int64 // lifetime totals, updated by endRound
	rounds       int
}

// Compute forwards to the wrapped algorithm and records the call.
func (c *computeClock) Compute(v *view.View) fsync.Action {
	start := c.rec.now()
	a := c.alg.Compute(v)
	end := c.rec.now()
	if i := c.next.Add(1) - 1; i < int64(len(c.ivals)) {
		c.ivals[i] = interval{start, end}
	}
	return a
}

// Radius forwards to the wrapped algorithm.
func (c *computeClock) Radius() int { return c.alg.Radius() }

// periodicClock is computeClock for an algorithm that implements
// fsync.Periodic. Forwarding RoundPeriod matters: an algorithm without it
// silently runs with the quiescence fast path off.
type periodicClock struct {
	*computeClock
	period int
}

// RoundPeriod forwards the wrapped algorithm's period.
func (p periodicClock) RoundPeriod() int { return p.period }

// timeCompute wraps alg for an engine of up to n robots. The returned
// algorithm implements fsync.Periodic exactly when alg does.
func timeCompute(alg fsync.Algorithm, rec *recorder, n int) (fsync.Algorithm, *computeClock) {
	c := &computeClock{alg: alg, rec: rec, ivals: make([]interval, n)}
	if p, ok := alg.(fsync.Periodic); ok {
		return periodicClock{c, p.RoundPeriod()}, c
	}
	return c, c
}

// endRound turns the calls since the previous endRound into one
// aggregated core.compute span under parent and returns the wall time the
// calls covered (the union of their intervals: parallel workers overlap).
func (c *computeClock) endRound(parent, op int64) time.Duration {
	k := int(c.next.Swap(0))
	if k > len(c.ivals) {
		panic(fmt.Sprintf("perfbench: %d Compute calls in one round, room for %d", k, len(c.ivals)))
	}
	c.rounds++
	if k == 0 {
		return 0
	}
	iv := c.ivals[:k]
	if !sort.SliceIsSorted(iv, func(i, j int) bool { return iv[i].start < iv[j].start }) {
		sort.Slice(iv, func(i, j int) bool { return iv[i].start < iv[j].start })
	}
	var sum, covered int64
	curS, curE := iv[0].start, iv[0].end
	for _, x := range iv {
		sum += x.end - x.start
		if x.start > curE {
			covered += curE - curS
			curS, curE = x.start, x.end
		} else if x.end > curE {
			curE = x.end
		}
	}
	covered += curE - curS
	c.calls += int64(k)
	c.sumNs += sum
	c.rec.add(span{Parent: parent, Op: op, Name: "core.compute", Start: iv[0].start, End: curE, Calls: int64(k), SumNs: sum})
	return time.Duration(covered)
}

// layerMetrics reports the core.* metrics over the rounds folded so far.
func (c *computeClock) layerMetrics(m map[string]float64) {
	if c.rounds == 0 {
		return
	}
	m["core.compute_calls"] = float64(c.calls) / float64(c.rounds)
	m["core.compute_ms"] = float64(c.sumNs) / 1e6 / float64(c.rounds)
	if c.calls > 0 {
		m["core.compute_ns_per_call"] = float64(c.sumNs) / float64(c.calls)
	}
}

// ---- fsync and world: one span per engine Step ----

// stepTracer steps fsync engines under spans and accumulates the per-round
// fsync and world metrics.
type stepTracer struct {
	rec         *recorder
	steps, self []time.Duration
	conn        world.ConnStats // summed per-round deltas
	quiesce     fsync.QuiesceStats
	lastCalls   int // Compute calls of the most recent step
}

// step runs one eng.Step under an fsync.step span whose child is the
// round's aggregated core.compute span, and returns the step's duration.
func (st *stepTracer) step(eng *fsync.Engine, clock *computeClock, op int64) (time.Duration, error) {
	conn0, q0, calls0 := eng.World().ConnStats(), eng.QuiesceStats(), clock.calls
	id := st.rec.reserve()
	start := st.rec.now()
	err := eng.Step()
	end := st.rec.now()
	covered := clock.endRound(id, op)
	st.rec.add(span{ID: id, Op: op, Name: "fsync.step", Start: start, End: end})
	d := time.Duration(end - start)
	st.steps = append(st.steps, d)
	st.self = append(st.self, d-covered)
	conn1, q1 := eng.World().ConnStats(), eng.QuiesceStats()
	st.conn.Queries += conn1.Queries - conn0.Queries
	st.conn.Fallbacks += conn1.Fallbacks - conn0.Fallbacks
	st.conn.Relabels += conn1.Relabels - conn0.Relabels
	st.quiesce.Computed += q1.Computed - q0.Computed
	st.quiesce.Skipped += q1.Skipped - q0.Skipped
	st.lastCalls = int(clock.calls - calls0)
	return d, err
}

// layerMetrics reports the fsync.* and world.* metrics over the traced steps.
func (st *stepTracer) layerMetrics(m map[string]float64) {
	rounds := float64(len(st.steps))
	if rounds == 0 {
		return
	}
	m["fsync.step_ms"] = millis(median(st.steps))
	m["fsync.self_ms"] = millis(median(st.self))
	m["fsync.quiesce_skip_ratio"] = st.quiesce.Ratio()
	m["fsync.quiesce_computed"] = float64(st.quiesce.Computed)
	m["fsync.quiesce_skipped"] = float64(st.quiesce.Skipped)
	m["world.conn_queries"] = float64(st.conn.Queries) / rounds
	m["world.conn_fallbacks"] = float64(st.conn.Fallbacks) / rounds
	m["world.conn_relabels"] = float64(st.conn.Relabels) / rounds
}

// ---- serve: an http.Handler wrapper around the gatherd server ----

// Request headers linking a server-side span to the client request that
// caused it.
const (
	headerOp   = "X-Bench-Op"
	headerSpan = "X-Bench-Span"
)

// handlerClock times every request the wrapped handler serves.
type handlerClock struct {
	h   http.Handler
	rec *recorder
}

func (hc handlerClock) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := hc.rec.now()
	hc.h.ServeHTTP(w, r)
	end := hc.rec.now()
	op, _ := strconv.ParseInt(r.Header.Get(headerOp), 10, 64)
	parent, _ := strconv.ParseInt(r.Header.Get(headerSpan), 10, 64)
	hc.rec.add(span{Parent: parent, Op: op, Name: "serve.handler." + routeOf(r), Start: start, End: end})
}

// routeOf classifies a gatherd request by the serveRoutes vocabulary.
func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/sessions":
		return "create"
	case r.Method == http.MethodDelete:
		return "delete"
	case strings.HasSuffix(p, "/step"):
		return "step"
	case strings.HasSuffix(p, "/snapshot"):
		return "snapshot"
	case strings.HasPrefix(p, "/v1/sessions/") && strings.Count(p, "/") == 3:
		return "status"
	default:
		return "other"
	}
}

// ---- runtime ----

// memMeter sums runtime.MemStats deltas over the measured parts of a
// phase. A nil *memMeter measures nothing, so untraced runs skip the
// stop-the-world MemStats reads.
type memMeter struct {
	start                       runtime.MemStats
	gc, pauseNs, bytes, mallocs uint64
}

func (mm *memMeter) begin() {
	if mm != nil {
		runtime.ReadMemStats(&mm.start)
	}
}

func (mm *memMeter) end() {
	if mm == nil {
		return
	}
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	mm.gc += uint64(now.NumGC - mm.start.NumGC)
	mm.pauseNs += now.PauseTotalNs - mm.start.PauseTotalNs
	mm.bytes += now.TotalAlloc - mm.start.TotalAlloc
	mm.mallocs += now.Mallocs - mm.start.Mallocs
}

// layerMetrics reports the runtime.* metrics over ops measured operations.
func (mm *memMeter) layerMetrics(ops int, m map[string]float64) {
	m["runtime.gc_cycles"] = float64(mm.gc)
	m["runtime.gc_pause_ms"] = float64(mm.pauseNs) / 1e6
	if ops > 0 {
		m["runtime.alloc_bytes_per_op"] = float64(mm.bytes) / float64(ops)
		m["runtime.allocs_per_op"] = float64(mm.mallocs) / float64(ops)
	}
}
