package gridgather

// EventKind identifies what a Simulation event reports.
type EventKind uint8

const (
	// EventRound fires after every completed round.
	EventRound EventKind = iota
	// EventMerge fires after rounds in which at least one robot was
	// removed by a merge (Event.RoundMerges robots this round).
	EventMerge
	// EventRunStart fires after rounds in which new §3.2 run states were
	// started (Event.RoundRunsStarted runs this round).
	EventRunStart
	// EventGathered fires once, after the round that brought the swarm
	// into a 2×2 square.
	EventGathered
	// EventAbort fires once if the simulation aborts (round limit,
	// disconnection, or the stuck watchdog), with Event.Err set.
	EventAbort
	// EventCrash fires after rounds in which at least one robot
	// crash-stopped (Event.RoundCrashes robots this round; WithFaults).
	EventCrash
	// EventDegraded fires once, after the round in which a fault
	// disconnected the swarm and the run latched graceful degradation
	// (WithFaults; a fault-free run aborts with EventAbort instead).
	EventDegraded
)

func (k EventKind) String() string {
	switch k {
	case EventRound:
		return "round"
	case EventMerge:
		return "merge"
	case EventRunStart:
		return "run-start"
	case EventGathered:
		return "gathered"
	case EventAbort:
		return "abort"
	case EventCrash:
		return "crash"
	case EventDegraded:
		return "degraded"
	default:
		return "event(?)"
	}
}

// EventMask selects event kinds for Subscribe.
type EventMask uint8

const (
	RoundEvents    EventMask = 1 << EventRound
	MergeEvents    EventMask = 1 << EventMerge
	RunStartEvents EventMask = 1 << EventRunStart
	GatheredEvents EventMask = 1 << EventGathered
	AbortEvents    EventMask = 1 << EventAbort
	CrashEvents    EventMask = 1 << EventCrash
	DegradedEvents EventMask = 1 << EventDegraded

	// AllEvents subscribes to every event kind.
	AllEvents = RoundEvents | MergeEvents | RunStartEvents | GatheredEvents |
		AbortEvents | CrashEvents | DegradedEvents
)

// Has reports whether the mask includes kind.
func (m EventMask) Has(k EventKind) bool { return m&(1<<k) != 0 }

// Event is one typed notification from a running Simulation.
//
// # Borrow semantics
//
// Robots and Runners alias session-owned scratch that is refilled every
// round: they are valid only for the duration of the callback and must not
// be retained or mutated — copy them if you need them afterwards. This is
// what keeps the observer path allocation-free; the allocation benchmark
// BenchmarkSessionObserver pins it.
type Event struct {
	// Kind is the event type; the fields below are populated for every
	// kind (they describe the post-round state of the simulation).
	Kind EventKind
	// Round is the number of completed rounds.
	Round int
	// Robots are the current robot positions (borrowed, see above).
	Robots []Point
	// Runners are the positions of robots holding run states (borrowed).
	Runners []Point
	// Merges is the cumulative number of robots removed by merges;
	// RoundMerges counts this round's removals.
	Merges, RoundMerges int
	// RunsStarted is the cumulative number of run states created;
	// RoundRunsStarted counts this round's starts.
	RunsStarted, RoundRunsStarted int
	// Crashes is the cumulative number of crash-stopped robots;
	// RoundCrashes counts this round's crashes. Zero without WithFaults.
	Crashes, RoundCrashes int
	// Err is the abort reason; non-nil only for EventAbort.
	Err error
}

// subscription is one registered observer.
type subscription struct {
	mask EventMask
	fn   func(Event)
}

// Subscribe registers fn for the event kinds in mask and returns a cancel
// function that removes the subscription (idempotent, and safe to call
// from inside an event callback — in-flight deliveries of the current
// event to other subscribers are unaffected). Callbacks run synchronously
// on the goroutine driving the simulation (Step, StepN, Run), in
// subscription order; a callback must not call back into the Simulation's
// mutating methods, but Snapshot and cancel functions are safe. Event
// payload slices are borrowed — see Event.
func (s *Simulation) Subscribe(mask EventMask, fn func(Event)) (cancel func()) {
	if fn == nil || mask == 0 {
		return func() {}
	}
	s.compactSubs()
	s.subSeq++
	id := s.subSeq
	s.subs = append(s.subs, subscription{mask: mask, fn: fn})
	s.subIDs = append(s.subIDs, id)
	return func() {
		for i, sid := range s.subIDs {
			if sid == id {
				// Clear in place rather than shifting the slice: emit may
				// be mid-iteration over s.subs when a callback cancels, and
				// removal would shift a later subscriber onto an index the
				// loop has already passed (double delivery).
				s.subs[i] = subscription{}
				break
			}
		}
		s.compactSubs()
	}
}

// compactSubs drops cancelled (zeroed) subscriptions. It is a no-op while
// an emit is iterating — the pending dead entries are swept on the next
// Subscribe, cancel or emit that runs outside a delivery — so
// subscribe/cancel churn cannot grow the slices without bound.
func (s *Simulation) compactSubs() {
	if s.emitting {
		return
	}
	i := 0
	for j := range s.subs {
		if s.subs[j].fn != nil {
			s.subs[i], s.subIDs[i] = s.subs[j], s.subIDs[j]
			i++
		}
	}
	clear(s.subs[i:])
	s.subs = s.subs[:i]
	s.subIDs = s.subIDs[:i]
}

// wants reports whether any live subscriber listens for kind.
func (s *Simulation) wants(k EventKind) bool {
	for _, sub := range s.subs {
		if sub.fn != nil && sub.mask.Has(k) {
			return true
		}
	}
	return false
}

// endEmit closes a delivery window and sweeps subscriptions cancelled from
// inside callbacks. Named (rather than a deferred closure in emit) to keep
// the delivery path closure-free.
func (s *Simulation) endEmit() {
	s.emitting = false
	s.compactSubs()
}

// emit delivers an event of the given kind to all matching subscribers,
// filling the shared payload fields from the current engine state. The
// Robots/Runners scratch must already be current (fillEventBuffers).
//
//gather:hotpath
func (s *Simulation) emit(k EventKind, err error) {
	ev := Event{
		Kind:             k,
		Round:            s.eng.Round(),
		Robots:           s.robotsBuf,
		Runners:          s.runnersBuf,
		Merges:           s.eng.Merges(),
		RoundMerges:      s.eng.RoundMerges(),
		RunsStarted:      s.eng.RunsStarted(),
		RoundRunsStarted: s.roundRuns,
		Crashes:          s.eng.Crashes(),
		RoundCrashes:     s.eng.RoundCrashes(),
		Err:              err,
	}
	s.emitting = true
	defer s.endEmit()
	for i := range s.subs {
		// Index (not range-copy) so a cancellation from inside a callback
		// is respected for the remainder of this event's delivery.
		if sub := &s.subs[i]; sub.fn != nil && sub.mask.Has(k) {
			sub.fn(ev)
		}
	}
}

// fillEventBuffers refreshes the borrowed Robots/Runners scratch from
// engine-owned state, allocation-free in steady state: the world's cell
// slice and the engine's runner scratch are copied element-wise into
// session-owned buffers that are reused across rounds.
//
//gather:hotpath
func (s *Simulation) fillEventBuffers() {
	s.robotsBuf = s.robotsBuf[:0]
	for _, p := range s.eng.World().Cells() {
		s.robotsBuf = append(s.robotsBuf, Point{X: p.X, Y: p.Y})
	}
	s.runnersBuf = s.runnersBuf[:0]
	for _, p := range s.eng.Runners() {
		s.runnersBuf = append(s.runnersBuf, Point{X: p.X, Y: p.Y})
	}
}
