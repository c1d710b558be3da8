package fsync

// This file is the engine checkpoint codec: the full resumable state of a
// simulation between rounds is the engine's counters, the dense world, and
// the scheduler's cursor. Everything else in the Engine struct is per-round
// scratch that every Step rebuilds, so it is not state and is not encoded —
// which keeps the encoding deterministic (equal engine states produce equal
// bytes) and the restored engine bit-identical to the original on every
// future round.

import (
	"fmt"

	"gridgather/internal/codec"
	"gridgather/internal/world"
)

// AppendState appends the engine's complete resumable state. Call it only
// between rounds (i.e. never from inside a Step). The configuration
// (algorithm, scheduler construction, budgets) is NOT
// encoded — the caller must restore into an engine built with an
// equivalent Config via NewRestored.
func (e *Engine) AppendState(b []byte) []byte {
	b = codec.AppendUvarint(b, uint64(e.round))
	b = codec.AppendUvarint(b, uint64(e.merges))
	b = codec.AppendUvarint(b, uint64(e.moves))
	b = codec.AppendUvarint(b, uint64(e.runsStart))
	b = codec.AppendUvarint(b, uint64(e.nextRunID))
	b = codec.AppendUvarint(b, uint64(e.lastMerge))
	b = codec.AppendUvarint(b, uint64(e.roundMerge))
	b = e.w.AppendState(b)
	if e.cfg.Scheduler != nil {
		b = e.cfg.Scheduler.AppendCursor(b)
	}
	if e.cfg.Faults != nil {
		b = e.appendFaultState(b)
	}
	return b
}

// appendFaultState encodes the fault layer: crash counters, the
// degradation latch, the crashed-live slot set (in canonical cell order,
// so equal states yield equal bytes), and the plan's RNG cursor. Gated on
// Config.Faults, so fault-free snapshots are byte-identical to pre-fault
// ones.
func (e *Engine) appendFaultState(b []byte) []byte {
	b = codec.AppendUvarint(b, uint64(e.crashesTotal))
	b = codec.AppendUvarint(b, uint64(e.roundCrash))
	b = codec.AppendBool(b, e.degraded)
	b = codec.AppendUvarint(b, uint64(e.degradedRound))
	b = codec.AppendUvarint(b, uint64(e.crashedLive))
	if e.crashTrack {
		for _, s := range e.w.Slots() {
			if e.w.Crashed(s) {
				b = codec.AppendUvarint(b, uint64(s))
			}
		}
	}
	return e.cfg.Faults.AppendCursor(b)
}

// restoreFaultState decodes appendFaultState into an engine whose
// initFaults already ran, restoring the plan's cursor in place.
func (e *Engine) restoreFaultState(b []byte) ([]byte, error) {
	r := codec.NewReader(b)
	e.crashesTotal = int(r.Uvarint())
	e.roundCrash = int(r.Uvarint())
	e.degraded = r.Bool()
	e.degradedRound = int(r.Uvarint())
	cnt := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if cnt > uint64(r.Len()) {
		// Corruption guard: each crashed slot costs ≥ 1 byte, so a count
		// beyond the remaining bytes cannot be honest.
		return nil, fmt.Errorf("fsync: snapshot claims %d crashed robots with %d bytes left", cnt, r.Len())
	}
	e.crashedLive = int(cnt)
	if e.crashTrack {
		listed := make([]int32, cnt)
		for i := range listed {
			slot := r.Uvarint()
			if r.Err() != nil {
				return nil, r.Err()
			}
			if slot >= uint64(e.w.SlotCount()) {
				return nil, fmt.Errorf("fsync: snapshot crashed slot %d out of range (have %d slots)", slot, e.w.SlotCount())
			}
			listed[i] = int32(slot)
		}
		// appendFaultState lists each crashed robot once, in canonical cell
		// order; a dead slot, a repeat or another order would restore a
		// state that encodes to different bytes. One walk over the cell
		// order both checks the list and sets the marks.
		i := 0
		cells := e.w.Cells()
		for j, s := range e.w.Slots() {
			if i < len(listed) && listed[i] == s {
				e.w.Crash(cells[j])
				i++
			}
		}
		if i != len(listed) {
			return nil, fmt.Errorf("fsync: snapshot crashed slots %v are not live robots in cell order", listed)
		}
	} else if cnt != 0 {
		return nil, fmt.Errorf("fsync: snapshot carries %d crashed robots for a plan without crash clauses", cnt)
	}
	return e.cfg.Faults.RestoreCursor(r.Rest())
}

// decodeCounters reads the counters AppendState writes ahead of the world;
// the caller checks r.Err().
func (e *Engine) decodeCounters(r *codec.Reader) {
	e.round = int(r.Uvarint())
	e.merges = int(r.Uvarint())
	e.moves = int(r.Uvarint())
	e.runsStart = int(r.Uvarint())
	e.nextRunID = int(r.Uvarint())
	e.lastMerge = int(r.Uvarint())
	e.roundMerge = int(r.Uvarint())
}

// SlotSpace returns the world slot-space size a snapshot written by
// AppendState declares, without decoding the world. NewRestored allocates
// per slot, so a caller that knows the slot space to expect — a session's
// initial population — rejects a mismatch here first.
func SlotSpace(b []byte) (uint64, error) {
	r := codec.NewReader(b)
	new(Engine).decodeCounters(r)
	if err := r.Err(); err != nil {
		return 0, err
	}
	return world.SlotSpace(r.Rest())
}

// NewRestored builds an engine whose state is decoded from a snapshot
// written by AppendState, returning the unread remainder of b. cfg and alg
// must be equivalent to the snapshotted engine's (same algorithm and
// parameters, a scheduler freshly built from the same spec and seed);
// hooks may differ freely. The scheduler's cursor is
// restored into cfg.Scheduler in place.
func NewRestored(alg Algorithm, cfg Config, b []byte) (*Engine, []byte, error) {
	if cfg.MaxRounds < 0 {
		cfg.MaxRounds = 0
	}
	e := &Engine{cfg: cfg, alg: alg}
	r := codec.NewReader(b)
	e.decodeCounters(r)
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	if e.nextRunID < 1 {
		return nil, nil, fmt.Errorf("fsync: snapshot run-ID counter %d (must be ≥ 1)", e.nextRunID)
	}
	w, rest, err := world.DecodeDense(r.Rest(), cfg.Scheduler != nil)
	if err != nil {
		return nil, nil, err
	}
	e.w = w
	if cfg.Scheduler != nil {
		if rest, err = cfg.Scheduler.RestoreCursor(rest); err != nil {
			return nil, nil, err
		}
	}
	if cfg.Faults != nil {
		e.initFaults()
		if rest, err = e.restoreFaultState(rest); err != nil {
			return nil, nil, err
		}
	}
	// Quiescence carries no snapshot state: a restored engine starts with
	// empty verdict masks and recomputes everything until they refill.
	e.initQuiesce()
	e.initScratch()
	return e, rest, nil
}
