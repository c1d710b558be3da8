package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"gridgather/internal/core"
	"gridgather/internal/fsync"
	"gridgather/internal/gen"
	"gridgather/internal/view"
)

// manifest mirrors the parts of BENCHMARK.json the program must agree with.
type manifest struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestMetricTablesMatchManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	// The program also runs frontier, which the manifest leaves out (see
	// README.md, Steadiness).
	names := map[string]bool{}
	for _, w := range workloads {
		names[w.name] = true
	}
	for _, w := range m.Workloads {
		if !names[w.Name] {
			t.Errorf("manifest workload %q is not a program workload", w.Name)
		}
	}
	if len(m.Workloads) != len(workloads)-1 {
		t.Errorf("manifest lists %d workloads, want every program workload but frontier", len(m.Workloads))
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("manifest lists %d end-to-end metrics, the program %d", len(m.EndToEnd), len(endToEnd))
	}
	for i, d := range m.EndToEnd {
		if got := (metricDef{d.Name, d.Unit, d.Better}); got != endToEnd[i] {
			t.Errorf("end-to-end metric %d: manifest %+v, program %+v", i, got, endToEnd[i])
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("manifest lists %d per-layer metrics, the program %d", len(m.PerLayer), len(perLayer))
	}
	for i, d := range m.PerLayer {
		if got := (metricDef{d.Name, d.Unit, d.Better}); got != perLayer[i] {
			t.Errorf("per-layer metric %d: manifest %+v, program %+v", i, got, perLayer[i])
		}
	}
}

// layerReached names, per workload, per-layer metrics that must be
// non-zero in a traced run: the layers the workload exists to stress.
var layerReached = map[string][]string{
	"gather-mid":    {"core.compute_calls", "core.compute_ns_per_call", "fsync.step_ms", "fsync.self_ms", "fsync.quiesce_computed", "gridgather.new_ms", "gridgather.warmup_ms"},
	"frontier":      {"core.compute_calls", "fsync.step_ms", "fsync.self_ms", "fsync.quiesce_skipped", "world.conn_queries", "gridgather.new_ms", "runtime.allocs_per_op"},
	"checkpoint":    {"gridgather.snapshot_ms", "gridgather.snapshot_bytes", "gridgather.restore_ms", "gridgather.resume_step_ms", "fsync.resume_computed", "fsync.resume_robots", "world.conn_fallbacks", "core.compute_calls"},
	"gatherd-mixed": {"serve.handler_ms.step.p50", "serve.handler_ms.status.p50", "serve.handler_ms.snapshot.p50", "serve.transport_ms", "pool.restores_per_req", "pool.evictions_per_req", "runtime.allocs_per_op"},
}

// TestWorkloadsTiny runs every workload at test sizes, untraced and
// traced, on seed 1 (the seed used while tuning) and on seed 977 (never
// used while tuning): every check must pass, every metric must be printed
// with its unit, and the traced run's counters must equal the untraced
// run's (tracedResult fails the run otherwise).
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{1, 977} {
			for _, traced := range []bool{false, true} {
				p := params{seed: seed, seconds: 1, traced: traced, tiny: true, scratch: t.TempDir()}
				res, err := w.run(p)
				if err != nil {
					t.Fatalf("%s seed %d traced %v: %v", w.name, seed, traced, err)
				}
				var stdout, stderr bytes.Buffer
				code := emit(&stdout, &stderr, w.name, traced, res)
				if code != 0 {
					t.Fatalf("%s seed %d traced %v: exit %d\n%s", w.name, seed, traced, code, stderr.String())
				}
				got := lastReport(t, stdout.String())
				if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
					t.Errorf("%s: correct %v, attempted %d, failed %d", w.name, got.Correct, got.Attempted, got.Failed)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(got.Metrics) != len(defs) {
					t.Errorf("%s traced %v: %d metrics printed, want %d", w.name, traced, len(got.Metrics), len(defs))
				}
				for _, d := range defs {
					mv, ok := got.Metrics[d.name]
					if !ok || mv.Unit != d.unit {
						t.Errorf("%s: metric %s printed as %+v (present %v), want unit %q", w.name, d.name, mv, ok, d.unit)
					}
					if !traced && mv.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, mv.Value)
					}
				}
				if traced {
					for _, name := range append(layerReached[w.name], "trace.overhead") {
						if got.Metrics[name].Value <= 0 {
							t.Errorf("%s: per-layer metric %s = %v, want > 0", w.name, name, got.Metrics[name].Value)
						}
					}
				}
			}
		}
	}
}

func lastReport(t *testing.T, out string) report {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out)
	}
	return r
}

func TestFailedCheckFailsTheRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	m := map[string]float64{}
	for _, d := range endToEnd {
		m[d.name] = 1
	}
	code := emit(&stdout, &stderr, "x", false, result{attempted: 3, metrics: m, problems: []string{"mismatch"}})
	if code == 0 || lastReport(t, stdout.String()).Correct {
		t.Fatalf("a failed check must make the run incorrect and exit non-zero (exit %d)", code)
	}
	delete(m, "work_s")
	stdout.Reset()
	if code := emit(&stdout, &stderr, "x", false, result{attempted: 3, metrics: m}); code == 0 {
		t.Fatal("a missing end-to-end metric must fail the run")
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "frontier", "--trace", "2"},
		{"--workload", "frontier", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no result", args, code, stdout.String())
		}
	}
}

// roundless is an algorithm without a round period.
type roundless struct{}

func (roundless) Compute(*view.View) fsync.Action { return fsync.Stay }
func (roundless) Radius() int                     { return 1 }

func TestComputeClockForwardsPeriodic(t *testing.T) {
	alg, _ := timeCompute(core.Default(), newRecorder(), 64*64)
	p, ok := alg.(fsync.Periodic)
	if !ok || p.RoundPeriod() != core.Default().RoundPeriod() {
		t.Fatal("the compute clock must forward fsync.Periodic, or quiescence switches off")
	}
	if _, ok := (fsync.Algorithm(roundless{})).(fsync.Periodic); ok {
		t.Fatal("roundless must not be periodic")
	}
	if alg, _ := timeCompute(roundless{}, newRecorder(), 1); func() bool { _, ok := alg.(fsync.Periodic); return ok }() {
		t.Fatal("the compute clock must not invent a round period")
	}
	// With the period forwarded, an engine over a solid swarm skips Computes.
	eng := fsync.New(gen.Solid(64, 64), alg, fsync.Config{Workers: 1})
	for i := 0; i < 30; i++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if qs := eng.QuiesceStats(); !qs.Enabled || qs.Skipped == 0 {
		t.Fatalf("quiescence off behind the clock: %+v", qs)
	}
}

func TestComputeClockCoveredIsTheUnion(t *testing.T) {
	rec := newRecorder()
	_, c := timeCompute(roundless{}, rec, 4)
	// Two workers' calls, interleaved: [0,10) [5,12) [20,25) [30,31).
	for i, iv := range []interval{{20, 25}, {0, 10}, {30, 31}, {5, 12}} {
		c.ivals[i] = iv
	}
	c.next.Store(4)
	if got := c.endRound(0, 0); got != 18 {
		t.Fatalf("covered %d ns, want 18", got)
	}
	if c.calls != 4 || c.sumNs != 10+7+5+1 {
		t.Fatalf("calls %d sum %d", c.calls, c.sumNs)
	}
}
