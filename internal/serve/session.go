package serve

import (
	"sync"

	"gridgather"
)

// session is the server-side wrapper around one pooled Simulation. The
// wrapper outlives the Simulation object itself: eviction discards the
// sim (its state lives on as a spilled snapshot) while the wrapper — and
// any event subscribers attached to it — stays, so a stream spans
// spill/restore cycles transparently.
//
// mu serializes all Simulation access (a Simulation is single-goroutine);
// the subscriber list has its own lock so streams can attach and detach
// while a step is running.
type session struct {
	id string

	mu  sync.Mutex // guards sim, dirty, label, deleted
	sim *gridgather.Simulation
	// dirty marks a sim whose state the spill store does not hold yet:
	// set at admission and before every Step, cleared by spill and
	// restore. Spilling a clean session writes nothing.
	dirty bool
	// workers is the one execution option preserved across spill/restore
	// (the snapshot carries only structural state).
	workers int
	label   string
	deleted bool

	// relayCancel detaches the wrapper's single Simulation subscription;
	// nil when no relay is attached (no sim, or no subscribers). Guarded
	// by mu (it is only touched while the sim is held).
	relayCancel func()

	subMu sync.Mutex
	subs  []*subscriber

	infoMu sync.Mutex
	info   SessionInfo // last known status; served to listings lock-free

	// stream counters owned by the server, bumped through it.
	srv *Server
}

// subscriber is one NDJSON stream consumer. The fan-out side never
// blocks: records are delivered with a non-blocking send into ch, and a
// consumer that lets the buffer fill is evicted (done closed, reason
// set) — the slow-consumer discipline that keeps one stalled client from
// stalling the simulation or any other stream.
type subscriber struct {
	mask gridgather.EventMask
	ch   chan EventRecord

	once   sync.Once
	done   chan struct{}
	reason string // set before done closes
}

// evict closes the subscriber exactly once with a reason.
func (sub *subscriber) evict(reason string) {
	sub.once.Do(func() {
		sub.reason = reason
		close(sub.done)
	})
}

// setInfo caches the latest status for lock-free listings.
func (s *session) setInfo(info SessionInfo) {
	s.infoMu.Lock()
	s.info = info
	s.infoMu.Unlock()
}

func (s *session) cachedInfo() SessionInfo {
	s.infoMu.Lock()
	defer s.infoMu.Unlock()
	return s.info
}

// refreshInfo recomputes the cached status from the live sim. Callers
// hold s.mu with s.sim non-nil.
func (s *session) refreshInfo(resident bool) SessionInfo {
	info := sessionInfo(s.id, s.label, resident, s.sim.Status())
	s.setInfo(info)
	return info
}

// subscribe attaches a stream consumer, wiring the relay into the live
// sim if this is the first one. Callers hold s.mu (the relay touches the
// sim); the subscriber list itself is guarded by subMu so the fan-out
// callback — which runs under mu on the stepping goroutine — and
// detaching streams never race.
func (s *session) subscribe(mask gridgather.EventMask, buffer int) *subscriber {
	sub := &subscriber{
		mask: mask,
		ch:   make(chan EventRecord, buffer),
		done: make(chan struct{}),
	}
	s.subMu.Lock()
	s.subs = append(s.subs, sub)
	s.subMu.Unlock()
	s.attachRelay()
	return sub
}

// unsubscribe detaches a consumer (client hung up or was evicted). The
// relay stays attached even if this was the last subscriber — it is
// detached lazily by the fan-out callback on its next delivery, which is
// the cancel-from-inside-the-callback path the root package's
// subscription machinery is proven safe for.
func (s *session) unsubscribe(sub *subscriber) {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	for i, x := range s.subs {
		if x == sub {
			s.subs = append(s.subs[:i], s.subs[i+1:]...)
			break
		}
	}
}

// attachRelay subscribes the fan-out callback to the live sim if it has
// subscribers and no relay yet. Callers hold s.mu.
func (s *session) attachRelay() {
	if s.sim == nil || s.relayCancel != nil {
		return
	}
	s.subMu.Lock()
	n := len(s.subs)
	s.subMu.Unlock()
	if n == 0 {
		return
	}
	s.relayCancel = s.sim.Subscribe(gridgather.AllEvents, s.fanOut)
}

// detachRelay cancels the sim subscription (spill, delete). Callers hold
// s.mu.
func (s *session) detachRelay() {
	if s.relayCancel != nil {
		s.relayCancel()
		s.relayCancel = nil
	}
}

// fanOut is the relay callback: it runs synchronously on the goroutine
// stepping the sim (under s.mu), converts the borrowed event into wire
// scalars, and delivers it non-blockingly to every matching subscriber.
// A subscriber whose buffer is full is evicted on the spot — the
// min-recv-rate discipline's deterministic half (the stream writer adds
// the wall-clock half). When the last subscriber is gone the relay
// cancels itself from inside its own callback — exactly the pattern
// TestCancelOwnSubscriptionDuringEmit pins as safe.
func (s *session) fanOut(ev gridgather.Event) {
	rec := eventRecord(ev)
	s.subMu.Lock()
	live := s.subs[:0]
	for _, sub := range s.subs {
		if !sub.mask.Has(ev.Kind) {
			live = append(live, sub)
			continue
		}
		select {
		case sub.ch <- rec:
			live = append(live, sub)
			s.srv.noteEventStreamed()
		default:
			sub.evict("slow consumer: event buffer overflow")
			s.srv.noteSlowEviction()
		}
	}
	clear(s.subs[len(live):])
	s.subs = live
	empty := len(s.subs) == 0
	s.subMu.Unlock()
	if empty {
		// Cancelling our own subscription mid-emit: safe per the root
		// package's documented Subscribe contract and its tests.
		s.detachRelay()
	}
}

// evictSubscribers drops every stream consumer (session deleted).
func (s *session) evictSubscribers(reason string) {
	s.subMu.Lock()
	subs := s.subs
	s.subs = nil
	s.subMu.Unlock()
	for _, sub := range subs {
		sub.evict(reason)
	}
}
