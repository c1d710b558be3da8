package serve

import (
	"fmt"
	"strings"

	"gridgather"
)

// Version is the gatherd service version, reported by -version and the
// stats endpoint. Bump on wire-format changes.
const Version = "0.2.0"

// The JSON wire format of the gatherd HTTP API. Response fields mirror
// the public Simulation surface (Status, Metrics, Result); the Reason
// strings are the documented gridgather.Reason* enum verbatim.

// CreateRequest is the body of POST /v1/sessions. Exactly one of
// Workload (+N) or Cells describes the swarm; the remaining fields map
// one-to-one onto the Simulation options of the same names (zero values
// select the same defaults New does).
type CreateRequest struct {
	Workload string   `json:"workload,omitempty"`
	N        int      `json:"n,omitempty"`
	Cells    [][2]int `json:"cells,omitempty"`
	Label    string   `json:"label,omitempty"`

	Radius        int    `json:"radius,omitempty"`
	L             int    `json:"l,omitempty"`
	Scheduler     string `json:"scheduler,omitempty"`
	SchedulerSeed int64  `json:"scheduler_seed,omitempty"`
	Algorithm     string `json:"algorithm,omitempty"`
	Faults        string `json:"faults,omitempty"`

	MaxRounds         int  `json:"max_rounds,omitempty"`
	NoMergeLimit      int  `json:"no_merge_limit,omitempty"`
	Workers           int  `json:"workers,omitempty"`
	ConnectivityCheck bool `json:"connectivity_check,omitempty"`
	StrictLocality    bool `json:"strict_locality,omitempty"`
}

// SessionInfo is the status payload: gridgather.Status plus the session's
// identity and pool placement.
type SessionInfo struct {
	ID       string `json:"id"`
	Label    string `json:"label,omitempty"`
	Resident bool   `json:"resident"`

	Round          int     `json:"round"`
	Robots         int     `json:"robots"`
	Alive          int     `json:"alive"`
	Crashed        int     `json:"crashed"`
	Gathered       bool    `json:"gathered"`
	Degraded       bool    `json:"degraded"`
	DegradedRound  int     `json:"degraded_round,omitempty"`
	QuiescentRatio float64 `json:"quiescent_ratio"`
	Done           bool    `json:"done"`
	Reason         string  `json:"reason"` // a gridgather.Reason* constant
	Error          string  `json:"error,omitempty"`
}

// sessionInfo flattens a Status into the wire shape.
func sessionInfo(id, label string, resident bool, st gridgather.Status) SessionInfo {
	info := SessionInfo{
		ID:             id,
		Label:          label,
		Resident:       resident,
		Round:          st.Round,
		Robots:         st.Robots,
		Alive:          st.Alive,
		Crashed:        st.Crashed,
		Gathered:       st.Gathered,
		Degraded:       st.Degraded,
		DegradedRound:  st.DegradedRound,
		QuiescentRatio: st.QuiescentRatio,
		Done:           st.Done,
		Reason:         st.Reason,
	}
	if st.Err != nil {
		info.Error = st.Err.Error()
	}
	return info
}

// ListResponse is the body of GET /v1/sessions. Spilled sessions report
// their last cached status (listing never forces a restore).
type ListResponse struct {
	Sessions []SessionInfo `json:"sessions"`
}

// StepRequest is the body of POST /v1/sessions/{id}/step. Zero values
// execute one round. Rounds executes up to that many rounds (StepN);
// ToCompletion runs until the session finishes, bounded by BudgetRounds
// when non-zero (the in-flight round budget, independent of the session's
// own WithMaxRounds abort budget). Either kind stops early, at a round
// boundary, once the server starts shutting down.
type StepRequest struct {
	Rounds       int  `json:"rounds,omitempty"`
	ToCompletion bool `json:"to_completion,omitempty"`
	BudgetRounds int  `json:"budget_rounds,omitempty"`
}

// StepResponse reports the rounds executed and the resulting status. A
// session abort (round limit, disconnection, watchdog) is a simulation
// outcome, not a transport error: the HTTP status stays 200 and the
// abort shows in Status.Reason/Error.
type StepResponse struct {
	Executed int         `json:"executed"`
	Status   SessionInfo `json:"status"`
}

// MetricsResponse is the body of GET /v1/sessions/{id}/metrics.
type MetricsResponse struct {
	ID string `json:"id"`

	Rounds          int     `json:"rounds"`
	InitialRobots   int     `json:"initial_robots"`
	Robots          int     `json:"robots"`
	Merges          int     `json:"merges"`
	RunsStarted     int     `json:"runs_started"`
	Moves           int     `json:"moves"`
	Crashes         int     `json:"crashes"`
	QuiesceComputed int     `json:"quiesce_computed"`
	QuiesceSkipped  int     `json:"quiesce_skipped"`
	QuiescentRatio  float64 `json:"quiescent_ratio"`
}

// ResultResponse is the body of GET /v1/sessions/{id}/result.
type ResultResponse struct {
	ID string `json:"id"`

	Gathered      bool   `json:"gathered"`
	Rounds        int    `json:"rounds"`
	Merges        int    `json:"merges"`
	RunsStarted   int    `json:"runs_started"`
	Moves         int    `json:"moves"`
	InitialRobots int    `json:"initial_robots"`
	FinalRobots   int    `json:"final_robots"`
	Crashes       int    `json:"crashes"`
	Degraded      bool   `json:"degraded"`
	Error         string `json:"error,omitempty"`
}

// EventRecord is one NDJSON line of the event stream. Kind is the
// EventKind name ("round", "merge", "run-start", "gathered", "abort",
// "crash", "degraded"), plus the stream-control kinds "status" (the
// opening record), "evicted" (the server dropped this consumer; Error
// says why) and "closed" (server shutdown).
type EventRecord struct {
	Kind             string `json:"kind"`
	Round            int    `json:"round"`
	Robots           int    `json:"robots,omitempty"`
	Runners          int    `json:"runners,omitempty"`
	Merges           int    `json:"merges,omitempty"`
	RoundMerges      int    `json:"round_merges,omitempty"`
	RunsStarted      int    `json:"runs_started,omitempty"`
	RoundRunsStarted int    `json:"round_runs_started,omitempty"`
	Crashes          int    `json:"crashes,omitempty"`
	RoundCrashes     int    `json:"round_crashes,omitempty"`
	Error            string `json:"error,omitempty"`
}

// eventRecord converts a borrowed session event into its wire shape
// (scalars only — nothing aliases the event's scratch slices).
func eventRecord(ev gridgather.Event) EventRecord {
	rec := EventRecord{
		Kind:             ev.Kind.String(),
		Round:            ev.Round,
		Robots:           len(ev.Robots),
		Runners:          len(ev.Runners),
		Merges:           ev.Merges,
		RoundMerges:      ev.RoundMerges,
		RunsStarted:      ev.RunsStarted,
		RoundRunsStarted: ev.RoundRunsStarted,
		Crashes:          ev.Crashes,
		RoundCrashes:     ev.RoundCrashes,
	}
	if ev.Err != nil {
		rec.Error = ev.Err.Error()
	}
	return rec
}

// StatsResponse is the body of GET /v1/stats: the pool accounting plus
// the streaming-layer counters.
type StatsResponse struct {
	Version string `json:"version"`

	Sessions            int    `json:"sessions"`
	Resident            int    `json:"resident"`
	Spilled             int    `json:"spilled"`
	MaxResident         int    `json:"max_resident"`          // the configured cap
	MaxResidentObserved int    `json:"max_resident_observed"` // the high-water mark
	Created             uint64 `json:"created"`
	Evictions           uint64 `json:"evictions"`
	Restores            uint64 `json:"restores"`
	Deletes             uint64 `json:"deletes"`
	RejectedFull        uint64 `json:"rejected_full"`
	RejectedBusy        uint64 `json:"rejected_busy"`
	RejectedClient      uint64 `json:"rejected_client"`
	SpillPending        int    `json:"spill_pending"`      // spills queued for the writer now
	SpillWriteErrors    uint64 `json:"spill_write_errors"` // failed spill writes, cumulative
	Clients             int    `json:"clients"`
	InFlight            int    `json:"in_flight"`
	BytesOut            uint64 `json:"bytes_out"`

	StreamsOpen          int     `json:"streams_open"`
	StreamsOpened        uint64  `json:"streams_opened"`
	SlowConsumersEvicted uint64  `json:"slow_consumers_evicted"`
	EventsStreamed       uint64  `json:"events_streamed"`
	UptimeSeconds        float64 `json:"uptime_seconds"`
}

// ErrorResponse is the JSON error envelope of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// ParseEventMask parses the events endpoint's mask parameter: a
// comma-separated list of EventKind names, or "" / "all" for every kind.
func ParseEventMask(spec string) (gridgather.EventMask, error) {
	if spec == "" || spec == "all" {
		return gridgather.AllEvents, nil
	}
	var mask gridgather.EventMask
	for _, name := range strings.Split(spec, ",") {
		switch strings.TrimSpace(name) {
		case "round":
			mask |= gridgather.RoundEvents
		case "merge":
			mask |= gridgather.MergeEvents
		case "run-start":
			mask |= gridgather.RunStartEvents
		case "gathered":
			mask |= gridgather.GatheredEvents
		case "abort":
			mask |= gridgather.AbortEvents
		case "crash":
			mask |= gridgather.CrashEvents
		case "degraded":
			mask |= gridgather.DegradedEvents
		case "":
			// tolerate a trailing comma
		default:
			return 0, fmt.Errorf("serve: unknown event kind %q (want round, merge, run-start, gathered, abort, crash, degraded or all)", name)
		}
	}
	if mask == 0 {
		return 0, fmt.Errorf("serve: empty event mask %q", spec)
	}
	return mask, nil
}

// options translates a CreateRequest into the Simulation option list.
func (req CreateRequest) options() []gridgather.Option {
	return []gridgather.Option{
		gridgather.WithRadius(req.Radius),
		gridgather.WithL(req.L),
		gridgather.WithScheduler(req.Scheduler),
		gridgather.WithSchedulerSeed(req.SchedulerSeed),
		gridgather.WithAlgorithm(req.Algorithm),
		gridgather.WithFaults(req.Faults),
		gridgather.WithMaxRounds(req.MaxRounds),
		gridgather.WithNoMergeLimit(req.NoMergeLimit),
		gridgather.WithWorkers(req.Workers),
		gridgather.WithConnectivityCheck(req.ConnectivityCheck),
		gridgather.WithStrictLocality(req.StrictLocality),
	}
}

// maxRobots caps the swarm one create may build, at the engine's
// million-robot scale, so a single request cannot make the daemon simulate
// an arbitrarily large workload. It is a memory bound: a resident
// session's engine holds about 67 bytes per robot for a compact swarm and
// about 200 for a one-cell-wide one (line, ring, staircase), plus 8 bytes
// per 64×64 chunk of the swarm's bounding box. At the cap that is at most
// about 210 MB plus the chunk table, which reaches 0.5 GB for the widest
// connected shape, a diagonal staircase 2^19 cells on a side. An evicted
// session may keep its snapshot queued in memory until the spill store
// writes it; at most MaxResident are queued and each is smaller than the
// engine it replaced, so the daemon holds at most twice the resident cap's
// worth of this bound. A variable only so tests can lower it.
var maxRobots = 1 << 20

// cells materializes the requested swarm.
func (req CreateRequest) cells() ([]gridgather.Point, error) {
	switch {
	case len(req.Cells) > 0 && req.Workload != "":
		return nil, fmt.Errorf("serve: create with both workload and cells")
	case len(req.Cells) > maxRobots:
		return nil, fmt.Errorf("serve: n = len(cells) %d exceeds the robot limit %d", len(req.Cells), maxRobots)
	case req.N > maxRobots:
		return nil, fmt.Errorf("serve: n %d exceeds the robot limit %d", req.N, maxRobots)
	case len(req.Cells) > 0:
		pts := make([]gridgather.Point, len(req.Cells))
		for i, c := range req.Cells {
			pts[i] = gridgather.Point{X: c[0], Y: c[1]}
		}
		return pts, nil
	case req.Workload != "":
		// A family rounds n to its own sizes (a Sierpinski carpet holds 8^d
		// robots), so the cap applies to what was built.
		pts, err := gridgather.Workload(req.Workload, req.N)
		if err == nil && len(pts) > maxRobots {
			return nil, fmt.Errorf("serve: n %d of workload %q builds %d robots, over the robot limit %d", req.N, req.Workload, len(pts), maxRobots)
		}
		return pts, err
	default:
		return nil, fmt.Errorf("serve: create needs a workload name or explicit cells")
	}
}
