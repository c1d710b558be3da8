// Package serve is gatherd's HTTP layer: gathering-as-a-service. It hosts
// many concurrent Simulation sessions behind a JSON + NDJSON API (stdlib
// net/http only), with a bounded resident set — least-recently-touched
// idle sessions spill to disk as Snapshot() bytes, written behind the
// request by the spill store, and are transparently restored on their
// next touch, so the snapshot format is at once the
// eviction currency, the migration format, and the client checkpoint.
//
// Backpressure follows the tendermint blocksync BlockPool discipline:
// a hard cap on resident sessions, per-client in-flight request caps, and
// flow accounting with min-recv-rate style write deadlines that evict
// slow stream consumers instead of letting them stall the simulation.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gridgather"
	"gridgather/internal/serve/pool"
)

// Config assembles a Server.
type Config struct {
	// Pool bounds the session pool (zero values take the pool defaults).
	Pool pool.Config
	// SpillDir is the snapshot spill directory; sessions found there at
	// startup are re-admitted as spilled (restart recovery). Required.
	SpillDir string
	// StreamBuffer is the per-subscriber event channel depth; a consumer
	// that falls this many events behind is evicted. Default 256.
	StreamBuffer int
	// StreamWriteTimeout is the per-record write deadline on event
	// streams — the wall-clock half of the slow-consumer discipline
	// (min-recv-rate). Default 10s.
	StreamWriteTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.StreamBuffer <= 0 {
		c.StreamBuffer = 256
	}
	if c.StreamWriteTimeout <= 0 {
		c.StreamWriteTimeout = 10 * time.Second
	}
	return c
}

// Server is the gatherd session host. Create one with New, mount it as an
// http.Handler, and shut it down with Shutdown (drains in-flight steps,
// spills every live session).
type Server struct {
	cfg   Config
	pool  *pool.Pool
	store *Store
	mux   *http.ServeMux

	nextID    atomic.Uint64
	startTime time.Time

	done      chan struct{} // closed by CloseStreams: streams end, steps drain
	closeOnce sync.Once

	streamsOpen    atomic.Int64
	streamsOpened  atomic.Uint64
	slowEvicted    atomic.Uint64
	eventsStreamed atomic.Uint64
}

// New opens the spill store, recovers any sessions spilled by a previous
// run, and returns the ready-to-mount server.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	store, err := OpenStore(cfg.SpillDir)
	if err != nil {
		return nil, err
	}
	p := pool.New(cfg.Pool)
	// A queued spill is smaller than the resident session it replaced, so
	// queueing at most MaxResident of them at most doubles the resident
	// set's memory (see maxRobots).
	store.maxPending = p.Config().MaxResident
	s := &Server{
		cfg:       cfg,
		pool:      p,
		store:     store,
		mux:       http.NewServeMux(),
		startTime: time.Now(),
		done:      make(chan struct{}),
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.routes()
	return s, nil
}

// recover re-admits every session the spill store holds, as spilled —
// a restarted daemon resumes exactly where SpillAll left it.
func (s *Server) recover() error {
	metas, err := s.store.List()
	if err != nil {
		return err
	}
	var maxID uint64
	for _, meta := range metas {
		sess := &session{
			id:    meta.ID,
			label: meta.Label,
			srv:   s,
		}
		sess.setInfo(SessionInfo{
			ID:     meta.ID,
			Label:  meta.Label,
			Round:  meta.Round,
			Robots: meta.Robots,
			Done:   meta.Done,
			Reason: meta.Reason,
		})
		if _, err := s.pool.AdmitSpilled(meta.ID, sess); err != nil {
			return err
		}
		if n, err := strconv.ParseUint(strings.TrimPrefix(meta.ID, "s"), 10, 64); err == nil && n > maxID {
			maxID = n
		}
	}
	s.nextID.Store(maxID)
	return nil
}

func (s *Server) newID() string {
	return fmt.Sprintf("s%06d", s.nextID.Add(1))
}

// Pool exposes the session pool (stats, tests).
func (s *Server) Pool() *pool.Pool { return s.pool }

func (s *Server) routes() {
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	s.mux.HandleFunc("GET /v1/sessions", s.handleList)
	s.mux.HandleFunc("POST /v1/sessions/restore", s.handleRestoreUpload)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	s.mux.HandleFunc("POST /v1/sessions/{id}/step", s.handleStep)
	s.mux.HandleFunc("GET /v1/sessions/{id}/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/sessions/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/sessions/{id}/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("POST /v1/sessions/{id}/evict", s.handleEvict)
	s.mux.HandleFunc("GET /v1/sessions/{id}/events", s.handleEvents)
}

// ServeHTTP charges session-API requests against the caller's in-flight
// budget (a stream holds its slot for its whole lifetime — that is the
// per-peer cap doing its job) and dispatches.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/v1/sessions") {
		client := clientKey(r)
		if err := s.pool.ClientAcquire(client); err != nil {
			s.httpError(w, http.StatusTooManyRequests, err.Error())
			return
		}
		defer s.pool.ClientRelease(client)
	}
	s.mux.ServeHTTP(w, r)
}

// clientKey identifies a caller: the X-Client header when set (load
// drivers, tests), else the remote host.
func clientKey(r *http.Request) string {
	if c := r.Header.Get("X-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// ---- session touch machinery ----

// withSession pins the session, locks it, makes it resident (restoring
// from the spill store if its Simulation was evicted) and runs fn under
// the lock. Known errors are mapped to HTTP responses; fn writes its own
// success response.
func (s *Server) withSession(w http.ResponseWriter, id string, fn func(e *pool.Entry, sess *session) error) {
	e, err := s.pool.Acquire(id)
	if err != nil {
		s.httpError(w, http.StatusNotFound, err.Error())
		return
	}
	defer s.pool.Release(e)
	sess := e.Payload().(*session)
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.deleted {
		s.httpError(w, http.StatusNotFound, "serve: session deleted")
		return
	}
	if err := s.materializeLocked(e, sess); err != nil {
		s.poolError(w, err)
		return
	}
	if err := fn(e, sess); err != nil {
		s.poolError(w, err)
	}
}

// materializeLocked ensures the session's Simulation is in memory and
// counted resident. Callers hold the entry pinned and sess.mu.
func (s *Server) materializeLocked(e *pool.Entry, sess *session) error {
	if !s.pool.Resident(e) {
		victims, err := s.pool.ReserveResident(e)
		if err != nil {
			return err
		}
		for _, v := range victims {
			s.spillVictim(v)
		}
	}
	if sess.sim != nil {
		// Still in memory (fresh, or a spill that lost the race to this
		// touch) — the slot reservation above is all that was needed.
		return nil
	}
	_, snap, err := s.store.Get(sess.id)
	if err != nil {
		s.pool.DropResident(e)
		return err
	}
	sim, err := gridgather.Restore(snap)
	if err != nil {
		s.pool.DropResident(e)
		return fmt.Errorf("serve: restore %s: %w", sess.id, err)
	}
	sess.sim = sim
	sess.dirty = false
	sess.attachRelay()
	return nil
}

// spillVictim writes an eviction victim selected by the pool out to the
// spill store. It never blocks on the victim's session lock: a held lock
// means a pinned toucher beat us to it, and — having pinned after our
// selection — that toucher sees the entry non-resident and re-reserves
// the slot itself, so there is nothing for us to spill. (This TryLock is
// also what keeps victim-spill chains free of lock-wait cycles.)
func (s *Server) spillVictim(e *pool.Entry) {
	sess := e.Payload().(*session)
	if !sess.mu.TryLock() {
		s.pool.MarkSpilled(e)
		return
	}
	defer sess.mu.Unlock()
	defer s.pool.MarkSpilled(e)
	if sess.deleted || sess.sim == nil || s.pool.Resident(e) {
		return
	}
	// A failed spill (a full write queue, then disk trouble) keeps the
	// Simulation in memory; the pool has it counted out, so the next touch
	// simply re-reserves the slot — the state is never lost.
	_ = s.spillLocked(sess)
}

// spillLocked hands the session to the spill store and discards the
// in-memory Simulation. A dirty session's snapshot is Put, which queues it
// for the store's writer: the disk write happens off the request path,
// and the store serves the queued bytes to a restore meanwhile. A clean
// session (not stepped since it was restored) writes nothing: the store
// already holds exactly its Snapshot(), and its sidecar fields cannot
// change without a step. Callers hold sess.mu with sess.sim non-nil.
func (s *Server) spillLocked(sess *session) error {
	st := sess.sim.Status()
	if sess.dirty {
		snap, err := sess.sim.Snapshot()
		if err != nil {
			return err
		}
		meta := SpillMeta{
			ID:     sess.id,
			Label:  sess.label,
			Round:  st.Round,
			Robots: st.Robots,
			Done:   st.Done,
			Reason: st.Reason,
		}
		if err := s.store.Put(meta, snap); err != nil {
			return err
		}
		sess.dirty = false
	}
	sess.detachRelay()
	sess.sim = nil
	sess.setInfo(sessionInfo(sess.id, sess.label, false, st))
	return nil
}

// ---- handlers ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "version": Version})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	ps := s.pool.Stats()
	writeJSON(w, http.StatusOK, StatsResponse{
		Version:              Version,
		Sessions:             ps.Sessions,
		Resident:             ps.Resident,
		Spilled:              ps.Spilled,
		MaxResident:          s.pool.Config().MaxResident,
		MaxResidentObserved:  ps.MaxResidentObserved,
		Created:              ps.Created,
		Evictions:            ps.Evictions,
		Restores:             ps.Restores,
		Deletes:              ps.Deletes,
		RejectedFull:         ps.RejectedFull,
		RejectedBusy:         ps.RejectedBusy,
		RejectedClient:       ps.RejectedClient,
		SpillPending:         s.store.Pending(),
		SpillWriteErrors:     s.store.WriteErrors(),
		Clients:              ps.Clients,
		InFlight:             ps.InFlight,
		BytesOut:             ps.BytesOut,
		StreamsOpen:          int(s.streamsOpen.Load()),
		StreamsOpened:        s.streamsOpened.Load(),
		SlowConsumersEvicted: s.slowEvicted.Load(),
		EventsStreamed:       s.eventsStreamed.Load(),
		UptimeSeconds:        time.Since(s.startTime).Seconds(),
	})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&req); err != nil {
		s.httpError(w, http.StatusBadRequest, "serve: bad create body: "+err.Error())
		return
	}
	cells, err := req.cells()
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	sess := &session{
		id:    s.newID(),
		label: req.Label,
		srv:   s,
	}
	s.admit(w, sess, func() (*gridgather.Simulation, error) {
		return gridgather.New(cells, req.options()...)
	})
}

// handleRestoreUpload creates a session from client-supplied snapshot
// bytes — the upload half of the snapshot round-trip (download, carry to
// another box or another day, restore). The label rides in a query
// parameter because the snapshot intentionally does not contain it; an
// unreadable header or an initial population above the create limit is
// rejected before any session is admitted.
func (s *Server) handleRestoreUpload(w http.ResponseWriter, r *http.Request) {
	snap, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "serve: bad snapshot body: "+err.Error())
		return
	}
	// Restore's memory grows with the declared initial population, so the
	// create limit applies here too, before any session is admitted.
	n, err := gridgather.SnapshotInitialRobots(snap)
	if err == nil && n > maxRobots {
		err = fmt.Errorf("serve: snapshot of %d robots exceeds the robot limit %d", n, maxRobots)
	}
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	sess := &session{
		id:    s.newID(),
		label: r.URL.Query().Get("label"),
		srv:   s,
	}
	s.admit(w, sess, func() (*gridgather.Simulation, error) {
		return gridgather.Restore(snap)
	})
}

// admit runs the shared create path: pool admission, spill-victims-first,
// then materialize the new Simulation — in that order, so the number of
// in-memory simulations never overshoots MaxResident.
func (s *Server) admit(w http.ResponseWriter, sess *session, build func() (*gridgather.Simulation, error)) {
	sess.mu.Lock()
	e, victims, err := s.pool.Admit(sess.id, sess)
	if err != nil {
		sess.mu.Unlock()
		s.poolError(w, err)
		return
	}
	for _, v := range victims {
		s.spillVictim(v)
	}
	sim, err := build()
	if err != nil {
		sess.deleted = true
		sess.mu.Unlock()
		s.pool.Release(e)
		_ = s.pool.Remove(sess.id)
		s.httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	sess.sim = sim
	sess.dirty = true
	info := sess.refreshInfo(true)
	sess.mu.Unlock()
	s.pool.Release(e)
	writeJSON(w, http.StatusCreated, info)
}

// handleList reports every session from its cached status — listing never
// forces a restore.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	entries := s.pool.Entries()
	resp := ListResponse{Sessions: make([]SessionInfo, 0, len(entries))}
	for _, e := range entries {
		sess := e.Payload().(*session)
		info := sess.cachedInfo()
		info.Resident = s.pool.Resident(e)
		resp.Sessions = append(resp.Sessions, info)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.withSession(w, r.PathValue("id"), func(e *pool.Entry, sess *session) error {
		writeJSON(w, http.StatusOK, sess.refreshInfo(true))
		return nil
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.withSession(w, r.PathValue("id"), func(e *pool.Entry, sess *session) error {
		m := sess.sim.Metrics()
		writeJSON(w, http.StatusOK, MetricsResponse{
			ID:              sess.id,
			Rounds:          m.Rounds,
			InitialRobots:   m.InitialRobots,
			Robots:          m.Robots,
			Merges:          m.Merges,
			RunsStarted:     m.RunsStarted,
			Moves:           m.Moves,
			Crashes:         m.Crashes,
			QuiesceComputed: m.QuiesceComputed,
			QuiesceSkipped:  m.QuiesceSkipped,
			QuiescentRatio:  m.QuiescentRatio,
		})
		return nil
	})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	s.withSession(w, r.PathValue("id"), func(e *pool.Entry, sess *session) error {
		res := sess.sim.Result()
		resp := ResultResponse{
			ID:            sess.id,
			Gathered:      res.Gathered,
			Rounds:        res.Rounds,
			Merges:        res.Merges,
			RunsStarted:   res.RunsStarted,
			Moves:         res.Moves,
			InitialRobots: res.InitialRobots,
			FinalRobots:   res.FinalRobots,
			Crashes:       res.Crashes,
			Degraded:      res.Degraded,
		}
		if res.Err != nil {
			resp.Error = res.Err.Error()
		}
		writeJSON(w, http.StatusOK, resp)
		return nil
	})
}

func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	// An empty body, sent with or without a length, is the zero request:
	// one round.
	var req StepRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil && err != io.EOF {
		s.httpError(w, http.StatusBadRequest, "serve: bad step body: "+err.Error())
		return
	}
	limit := req.BudgetRounds // ≤ 0: until the session finishes
	if !req.ToCompletion {
		limit = max(req.Rounds, 1)
	}
	s.withSession(w, r.PathValue("id"), func(e *pool.Entry, sess *session) error {
		executed := s.stepDrain(r.Context(), sess, limit)
		writeJSON(w, http.StatusOK, StepResponse{
			Executed: executed,
			Status:   sess.refreshInfo(true),
		})
		return nil
	})
}

// stepDrain executes up to limit rounds (limit ≤ 0: no limit) and returns
// how many ran. It stops when the session gathers or aborts — ErrDone and
// an abort are simulation outcomes that Status carries, not transport
// errors — and, so that a large step cannot hold Shutdown's drain, when
// CloseStreams was called: the session then spills at the round it
// reached and resumes there after a restart. It also stops when ctx is
// done, so a step whose client left runs no further round; a round is
// atomic, so the session stays consistent and steps on from there.
func (s *Server) stepDrain(ctx context.Context, sess *session, limit int) int {
	executed := 0
	left := ctx.Done()
	for limit <= 0 || executed < limit {
		select {
		case <-s.done:
			return executed
		case <-left:
			return executed
		default:
		}
		// Before the call: a Step that fails may still change the state.
		sess.dirty = true
		if sess.sim.Step() != nil {
			return executed
		}
		executed++
	}
	return executed
}

// handleSnapshot serves the session's snapshot bytes. A spilled session is
// served straight from the store — downloading a cold session does not
// force a restore.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	e, err := s.pool.Acquire(r.PathValue("id"))
	if err != nil {
		s.httpError(w, http.StatusNotFound, err.Error())
		return
	}
	defer s.pool.Release(e)
	sess := e.Payload().(*session)
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.deleted {
		s.httpError(w, http.StatusNotFound, "serve: session deleted")
		return
	}
	var snap []byte
	if sess.sim != nil {
		snap, err = sess.sim.Snapshot()
	} else {
		_, snap, err = s.store.Get(sess.id)
	}
	if err != nil {
		s.poolError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(snap)))
	w.WriteHeader(http.StatusOK)
	n, _ := w.Write(snap)
	s.pool.NoteFlow(n)
}

// handleEvict spills the session to disk on demand (tests, operators
// pre-draining a box) and waits for the session's write, unlike a victim
// spill. Evicting a spilled session only waits for a write still queued.
func (s *Server) handleEvict(w http.ResponseWriter, r *http.Request) {
	e, err := s.pool.Acquire(r.PathValue("id"))
	if err != nil {
		s.httpError(w, http.StatusNotFound, err.Error())
		return
	}
	defer s.pool.Release(e)
	sess := e.Payload().(*session)
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.deleted {
		s.httpError(w, http.StatusNotFound, "serve: session deleted")
		return
	}
	if sess.sim != nil {
		if err := s.spillLocked(sess); err != nil {
			s.httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		s.pool.DropResident(e)
	}
	if err := s.store.Sync(sess.id); err != nil {
		s.httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, sess.cachedInfo())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, err := s.pool.Acquire(id)
	if err != nil {
		s.httpError(w, http.StatusNotFound, err.Error())
		return
	}
	sess := e.Payload().(*session)
	sess.mu.Lock()
	if sess.deleted {
		sess.mu.Unlock()
		s.pool.Release(e)
		s.httpError(w, http.StatusNotFound, "serve: session deleted")
		return
	}
	sess.deleted = true
	sess.detachRelay()
	sess.sim = nil
	sess.mu.Unlock()
	sess.evictSubscribers("session deleted")
	s.pool.Release(e)
	_ = s.pool.Remove(id)
	if err := s.store.Delete(id); err != nil {
		s.httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// ---- shutdown ----

// CloseStreams ends every open event stream and tells in-flight steps to
// drain: each returns after the round it is executing. It then waits until
// the spill store's writer is idle, so once no request is in flight no
// spill write outlives the call. Idempotent.
func (s *Server) CloseStreams() {
	s.closeOnce.Do(func() { close(s.done) })
	_ = s.store.Flush() // a write error stays queued; SpillAll reports it
}

// SpillAll writes every resident session to the spill store and waits
// until every queued spill is on disk — the last act of a graceful
// shutdown, making restart recovery lossless. It returns the first spill
// or write error.
func (s *Server) SpillAll() error {
	var firstErr error
	for _, e := range s.pool.Entries() {
		pinned, err := s.pool.Acquire(e.ID())
		if err != nil {
			continue // deleted meanwhile
		}
		sess := pinned.Payload().(*session)
		sess.mu.Lock()
		if !sess.deleted && sess.sim != nil {
			if err := s.spillLocked(sess); err != nil {
				if firstErr == nil {
					firstErr = err
				}
			} else {
				s.pool.DropResident(pinned)
			}
		}
		sess.mu.Unlock()
		s.pool.Release(pinned)
	}
	if err := s.store.Flush(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Shutdown is the graceful-stop sequence: stop streams, drain the HTTP
// server (in-flight steps finish their rounds), then spill every live
// session so a restart resumes where this process stopped.
func (s *Server) Shutdown(ctx context.Context, hs *http.Server) error {
	s.CloseStreams()
	err := hs.Shutdown(ctx)
	if spillErr := s.SpillAll(); err == nil {
		err = spillErr
	}
	return err
}

// ---- plumbing ----

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func (s *Server) httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, ErrorResponse{Error: msg})
}

// poolError maps pool and store refusals onto HTTP backpressure codes.
func (s *Server) poolError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, pool.ErrNotFound), errors.Is(err, ErrNoSnapshot):
		s.httpError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, pool.ErrClientLimit):
		s.httpError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, pool.ErrPoolFull), errors.Is(err, pool.ErrAllBusy):
		s.httpError(w, http.StatusServiceUnavailable, err.Error())
	default:
		s.httpError(w, http.StatusInternalServerError, err.Error())
	}
}

func (s *Server) noteEventStreamed() { s.eventsStreamed.Add(1) }
func (s *Server) noteSlowEviction()  { s.slowEvicted.Add(1) }
