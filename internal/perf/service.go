package perf

import (
	"encoding/json"
	"fmt"
	"os"
)

// ServiceReport is the gatherd service benchmark JSON (BENCH_service.json
// at the repo root is the committed baseline; cmd/gatherload -out
// regenerates it, and CI's service smoke step runs ServiceGuard over the
// fresh measurement before uploading it).
type ServiceReport struct {
	// Note records the measurement configuration for human readers.
	Note string `json:"note,omitempty"`
	// DurationSeconds is the measured wall-clock window.
	DurationSeconds float64 `json:"duration_seconds"`
	// Sessions is the number of sessions created during the window;
	// SessionsPerSec the resulting arrival throughput.
	Sessions       int     `json:"sessions"`
	SessionsPerSec float64 `json:"sessions_per_sec"`
	// Latency percentiles, in milliseconds, per operation class. Restore
	// is the latency of the first step after an explicit eviction — the
	// spill-to-disk round trip the LRU pool adds to a cold touch.
	CreateP50Ms   float64 `json:"create_p50_ms"`
	CreateP99Ms   float64 `json:"create_p99_ms"`
	StepP50Ms     float64 `json:"step_p50_ms"`
	StepP99Ms     float64 `json:"step_p99_ms"`
	SnapshotP50Ms float64 `json:"snapshot_p50_ms"`
	SnapshotP99Ms float64 `json:"snapshot_p99_ms"`
	EvictP50Ms    float64 `json:"evict_p50_ms"`
	EvictP99Ms    float64 `json:"evict_p99_ms"`
	RestoreP50Ms  float64 `json:"restore_p50_ms"`
	RestoreP99Ms  float64 `json:"restore_p99_ms"`
	// Pool accounting at the end of the window, from /v1/stats.
	MaxResidentCap      int    `json:"max_resident_cap"`
	MaxResidentObserved int    `json:"max_resident_observed"`
	Evictions           uint64 `json:"evictions"`
	Restores            uint64 `json:"restores"`
	EventsStreamed      uint64 `json:"events_streamed"`
	BytesOut            uint64 `json:"bytes_out"`
	// Errors counts unexpected responses (backpressure 429/503 replies are
	// expected under load and not errors).
	Errors int `json:"errors"`
}

// WriteServiceJSON writes the service report as the committed benchmark
// format.
func WriteServiceJSON(rep ServiceReport, path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ServiceGuard is the service health bar the CI smoke step enforces on a
// fresh measurement: the run completed without protocol errors, sessions
// actually flowed, the resident cap held, and eviction earned its keep
// (sessions spilled and came back). It deliberately puts no bar on
// absolute latency — CI boxes vary too much — only on correctness-shaped
// facts the daemon controls.
func ServiceGuard(rep ServiceReport) error {
	if rep.Errors > 0 {
		return fmt.Errorf("perf: service run saw %d protocol errors", rep.Errors)
	}
	if rep.Sessions <= 0 || rep.SessionsPerSec <= 0 {
		return fmt.Errorf("perf: service run created no sessions (%d in %.1fs)", rep.Sessions, rep.DurationSeconds)
	}
	if rep.MaxResidentCap > 0 && rep.MaxResidentObserved > rep.MaxResidentCap {
		return fmt.Errorf("perf: resident sessions peaked at %d, over the cap %d", rep.MaxResidentObserved, rep.MaxResidentCap)
	}
	if rep.Evictions == 0 || rep.Restores == 0 {
		return fmt.Errorf("perf: service run never exercised spill/restore (evictions=%d restores=%d) — raise the load or lower the cap", rep.Evictions, rep.Restores)
	}
	if rep.StepP99Ms <= 0 || rep.RestoreP99Ms <= 0 {
		return fmt.Errorf("perf: missing latency samples (step p99 %.3fms, restore p99 %.3fms)", rep.StepP99Ms, rep.RestoreP99Ms)
	}
	return nil
}
