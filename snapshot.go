// Snapshot format discipline for this package: the marker below
// fingerprints every format-bearing declaration (Append*/Decode*/restore
// helpers, Snapshot, and the version constant). gatherlint recomputes the
// fingerprint on each run; if the format changed without a snapshotVersion
// bump, it reports the stale hash and the new one to paste in after bumping.
//
//gather:snapshot-format version=snapshotVersion hash=45c0598533cb94fc

package gridgather

import (
	"bytes"
	"errors"
	"fmt"
	"math"

	"gridgather/internal/codec"
	"gridgather/internal/fsync"
)

// Snapshot format: a four-byte magic, a version, the structural
// configuration (radius, L, scheduler spec + seed, algorithm), the
// resolved simulation budget and safety flags, the initial population, and
// the engine state (counters, dense world, scheduler cursor) as encoded by
// internal/fsync. The encoding is versioned and deterministic: equal
// session states produce equal bytes.
var snapshotMagic = []byte("GGSS")

// snapshotVersion is bumped whenever the layout changes; Restore rejects
// other versions with ErrSnapshotVersion. Version 2 added the fault spec
// to the structural header and the engine's fault section (crash marks,
// degradation latch, fault-RNG cursor) to the state.
const snapshotVersion = 2

// Typed Restore failures, matched with errors.Is.
var (
	// ErrSnapshotInvalid reports input that is not a gridgather snapshot
	// or is structurally corrupt.
	ErrSnapshotInvalid = errors.New("gridgather: invalid snapshot")
	// ErrSnapshotVersion reports a snapshot from an incompatible format
	// version.
	ErrSnapshotVersion = errors.New("gridgather: unsupported snapshot version")
	// ErrSnapshotTruncated reports a snapshot cut short.
	ErrSnapshotTruncated = errors.New("gridgather: truncated snapshot")
)

// Snapshot serializes the session's complete resumable state: cells, run
// states and their IDs, logical clocks, the scheduler cursor, all
// counters, and the structural configuration. Restore resumes it
// bit-identically: the continued run executes exactly the rounds the
// uninterrupted session would have. Snapshots may be taken at any round
// boundary — including from inside an event callback — and do not perturb
// the session. The encoding is deterministic: equal states yield equal
// bytes. An invariant-violation abort (disconnection, stuck watchdog) is
// carried across the snapshot and stays sticky after Restore; a
// round-limit abort is re-derived from the restored budget instead, so
// WithMaxRounds at Restore can grant an exhausted run more rounds.
func (s *Simulation) Snapshot() ([]byte, error) {
	// A robot without runs encodes in about eight bytes (two coordinates,
	// slot, run count), so sizing the buffer from the population spares
	// the doubling copies of a growing append.
	b := make([]byte, 0, 256+10*s.eng.World().Len())
	b = append(b, snapshotMagic...)
	b = codec.AppendUvarint(b, snapshotVersion)
	b = codec.AppendInt(b, s.cfg.radius)
	b = codec.AppendInt(b, s.cfg.l)
	b = codec.AppendString(b, s.cfg.scheduler)
	b = codec.AppendVarint(b, s.cfg.schedulerSeed)
	b = codec.AppendString(b, s.cfg.algorithm)
	b = codec.AppendString(b, s.cfg.faults)
	b = codec.AppendInt(b, s.cfg.maxRounds)
	b = codec.AppendInt(b, s.cfg.noMergeLimit)
	b = codec.AppendBool(b, s.cfg.checkConn)
	b = codec.AppendBool(b, s.cfg.strict)
	b = codec.AppendUvarint(b, uint64(s.initial))
	b = appendAbortState(b, s.err)
	return s.eng.AppendState(b), nil
}

// Abort-state tags. A round-limit abort is deliberately NOT carried across
// a snapshot: it is a pure budget condition that the restored session
// re-derives on its first Step against the (possibly overridden) budget —
// which is what lets Restore(..., WithMaxRounds(more)) grant an exhausted
// run more rounds. Invariant violations (disconnection, stuck watchdog,
// algorithm errors), by contrast, describe the world state itself and stay
// sticky: a restored session must not re-execute rounds the original
// refused to run.
const (
	abortNone         = 0 // healthy, gathered, or round-limit (re-derived)
	abortDisconnected = 1
	abortStuck        = 2
	abortOther        = 3
)

// restoredAbortError carries an untyped abort reason across a checkpoint:
// the message survives verbatim, so checkpoint chains do not accrete
// wrapping prefixes and re-snapshotting is a fixed point.
type restoredAbortError struct{ msg string }

func (e restoredAbortError) Error() string { return e.msg }

func appendAbortState(b []byte, err error) []byte {
	switch e := err.(type) {
	case nil, fsync.ErrRoundLimit:
		return codec.AppendUvarint(b, abortNone)
	case fsync.ErrDisconnected:
		b = codec.AppendUvarint(b, abortDisconnected)
		return codec.AppendInt(b, e.Round)
	case fsync.ErrStuck:
		b = codec.AppendUvarint(b, abortStuck)
		b = codec.AppendInt(b, e.Round)
		return codec.AppendInt(b, e.SinceMerge)
	default:
		b = codec.AppendUvarint(b, abortOther)
		return codec.AppendString(b, err.Error())
	}
}

func decodeAbortState(r *codec.Reader) (error, bool) {
	switch tag := r.Uvarint(); tag {
	case abortNone:
		return nil, true
	case abortDisconnected:
		return fsync.ErrDisconnected{Round: r.Int()}, true
	case abortStuck:
		return fsync.ErrStuck{Round: r.Int(), SinceMerge: r.Int()}, true
	case abortOther:
		return restoredAbortError{msg: r.Text()}, true
	default:
		return nil, false
	}
}

// Restore rebuilds a session from a Snapshot. The structural configuration
// (radius, L, scheduler, seed, algorithm, faults) comes from the snapshot
// and cannot be overridden — passing a structural Option is an error.
// Execution options apply on top of the checkpointed ones:
// WithConnectivityCheck, WithStrictLocality, and budget overrides
// (WithMaxRounds / WithNoMergeLimit replace the checkpointed limits, e.g.
// to grant an exhausted run more budget; 0 keeps them) may all differ from
// the original session without affecting the simulated rounds.
//
// Truncated input fails with ErrSnapshotTruncated, an unknown format
// version with ErrSnapshotVersion, and corrupt or trailing data with
// ErrSnapshotInvalid (all wrapped; match with errors.Is). Restore
// allocates in proportion to the initial population the snapshot
// declares; a server restoring snapshots it did not write bounds that
// first with SnapshotInitialRobots.
func Restore(snapshot []byte, opts ...Option) (*Simulation, error) {
	sim, r, err := decodeHeader(snapshot)
	if err != nil {
		return nil, err
	}
	cfg := &sim.cfg
	ckpt := fsync.Budget{MaxRounds: cfg.maxRounds, NoMergeLimit: cfg.noMergeLimit}
	// The budget options start unset, so a checkpointed limit passes
	// through WithOverrides verbatim, even one a snapshot encodes as
	// negative.
	cfg.maxRounds, cfg.noMergeLimit = 0, 0
	if err := cfg.apply(opts); err != nil {
		return nil, err
	}
	if err := cfg.rejectStructural(); err != nil {
		return nil, err
	}
	budget := ckpt.WithOverrides(cfg.maxRounds, cfg.noMergeLimit)
	cfg.maxRounds, cfg.noMergeLimit = budget.MaxRounds, budget.NoMergeLimit

	// The budget was resolved at the original construction (fairness-scaled
	// by the initial population); resolve here only rebuilds the algorithm
	// and a fresh scheduler instance for the cursor to restore into.
	sc, err := cfg.resolve(sim.initial)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotInvalid, err)
	}
	// New gives the robots slots 0..initial-1 and merges never add one, so
	// the world's slot space is exactly the initial population. Checking it
	// before the engine decodes keeps a forged slot space from sizing the
	// per-slot tables.
	slots, err := fsync.SlotSpace(r.Rest())
	if err != nil {
		return nil, snapshotErr(err)
	}
	if slots != uint64(sim.initial) {
		return nil, fmt.Errorf("%w: world of %d slots for an initial population of %d", ErrSnapshotInvalid, slots, sim.initial)
	}
	eng, rest, err := fsync.NewRestored(sc.alg, cfg.engineConfig(sc), r.Rest())
	if err != nil {
		return nil, snapshotErr(err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrSnapshotInvalid, len(rest))
	}
	sim.eng = eng
	return sim, nil
}

// SnapshotInitialRobots returns the initial population a snapshot
// declares, reading only its header. Restore's memory grows with this
// number, so a server accepting snapshots from clients checks it against
// its own limit first. It fails with the same typed errors as Restore.
func SnapshotInitialRobots(snapshot []byte) (int, error) {
	sim, _, err := decodeHeader(snapshot)
	if err != nil {
		return 0, err
	}
	return sim.initial, nil
}

// decodeHeader reads everything ahead of the engine state: magic, version,
// structural configuration, budget, safety flags, initial population and
// the abort state. The reader is left at the engine state.
func decodeHeader(snapshot []byte) (*Simulation, *codec.Reader, error) {
	if len(snapshot) < len(snapshotMagic) {
		return nil, nil, fmt.Errorf("%w: %d bytes", ErrSnapshotTruncated, len(snapshot))
	}
	if !bytes.Equal(snapshot[:len(snapshotMagic)], snapshotMagic) {
		return nil, nil, fmt.Errorf("%w: bad magic", ErrSnapshotInvalid)
	}
	r := codec.NewReader(snapshot[len(snapshotMagic):])
	if v := r.Uvarint(); r.Err() == nil && v != snapshotVersion {
		return nil, nil, fmt.Errorf("%w: version %d (this build reads %d)", ErrSnapshotVersion, v, snapshotVersion)
	}
	sim := &Simulation{cfg: settings{
		radius:        r.Int(),
		l:             r.Int(),
		scheduler:     r.Text(),
		schedulerSeed: r.Varint(),
		algorithm:     r.Text(),
		faults:        r.Text(),
		maxRounds:     r.Int(),
		noMergeLimit:  r.Int(),
		checkConn:     r.Bool(),
		strict:        r.Bool(),
	}}
	initial := r.Uvarint()
	stickyErr, okTag := decodeAbortState(r)
	if err := r.Err(); err != nil {
		return nil, nil, snapshotErr(err)
	}
	if !okTag {
		return nil, nil, fmt.Errorf("%w: unknown abort tag", ErrSnapshotInvalid)
	}
	if initial > math.MaxInt32 {
		return nil, nil, fmt.Errorf("%w: initial population %d", ErrSnapshotInvalid, initial)
	}
	sim.initial = int(initial)
	sim.err = stickyErr
	return sim, r, nil
}

// snapshotErr wraps a decode failure in the matching public sentinel,
// keeping the cause matchable too.
func snapshotErr(err error) error {
	if errors.Is(err, codec.ErrTruncated) {
		return fmt.Errorf("%w: %w", ErrSnapshotTruncated, err)
	}
	return fmt.Errorf("%w: %w", ErrSnapshotInvalid, err)
}
