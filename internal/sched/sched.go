// Package sched generalizes the simulation's time model. The paper proves
// its O(n) gathering bound in the fully synchronous FSYNC model — every
// robot executes a full look-compute-move cycle in every round. Follow-up
// work relaxes that synchrony: "Gathering Anonymous, Oblivious Robots on a
// Grid" (Fischer, Jung, Meyer auf der Heide) keeps the local grid setting,
// and the meeting-node line ("Gathering over Meeting Nodes in Infinite
// Grid", Bhagat et al.) studies grid gathering under fully asynchronous
// schedulers. This package supplies the scheduler axis for such scenarios:
// a Scheduler yields the activation set of each round, and the FSYNC engine
// (internal/fsync) runs look-compute-move only over that set while the
// remaining robots sleep in place.
//
// Three model families are provided:
//
//   - FSYNC: every robot, every round (the paper's model).
//   - SSYNC: per round an arbitrary subset acts in lockstep. Variants:
//     round-robin interleavings, seeded random subsets, and a lazy
//     "adversarial" scheduler that delays every robot as long as its
//     fairness bound allows, with spatially hashed phases so that
//     neighboring robots are maximally desynchronized.
//   - ASYNC: a sequential wavefront sweeping the population in blocks,
//     generalizing the fair one-robot-at-a-time scheduler of
//     internal/baseline/asyncseq (width 1 is exactly that baseline's
//     schedule). Each robot's look/compute/move cycle executes atomically
//     when its turn comes, but the cycles of different robots are staggered
//     arbitrarily far apart — the standard "ASYNC with atomic LCM"
//     simulation model.
//
// Every scheduler is deterministic (randomized ones take an explicit seed)
// and carries a fairness bound: an upper limit on how many consecutive
// rounds any robot can sleep. Simulation budgets (round limits, stuck
// watchdogs) are scaled by that bound, since a scheduler that activates a
// 1/k fraction of the swarm per round slows gathering by up to a factor k.
//
// A Scheduler instance may carry per-simulation state (cursors, fairness
// deadlines, RNG streams); use one instance per engine.
//
// Practical note on fairness windows: the algorithm starts new runs every
// L-th tick of a robot's local clock (L = 22 by default). Under the engine's
// per-robot logical clocks any fairness window works, but windows coprime to
// L spread activations most evenly across the start schedule; the default
// windows (3 and 5) are chosen accordingly.
//
//gather:deterministic
package sched

import (
	"fmt"
	"strconv"
	"strings"

	"gridgather/internal/codec"
	"gridgather/internal/grid"
	"gridgather/internal/splitmix"
)

// Scheduler decides which robots are activated — i.e. perform a full
// look-compute-move cycle — in each round.
type Scheduler interface {
	// Activate marks this round's activation set: active[i] corresponds to
	// cells[i] and arrives all false. cells is the current population in
	// deterministic sorted order (the engine's canonical cell order), and
	// slots[i] is the stable engine slot of the robot at cells[i] — slots
	// identify a robot across rounds (they move with it and are never
	// reused after a merge), so per-robot bookkeeping indexes a flat
	// slice instead of hashing cells. Implementations must be
	// deterministic functions of (round, cells, slots) and their own
	// state.
	Activate(round int, cells []grid.Point, slots []int32, active []bool)
	// Fairness returns an upper bound on the number of consecutive rounds
	// any single robot can remain inactive when the population is n robots
	// (1 = FSYNC). Callers scale simulation budgets by this bound.
	Fairness(n int) int
	// String names the scheduler for reports and sweep group keys.
	String() string
	// AppendCursor and RestoreCursor checkpoint the scheduler's mutable
	// per-simulation state — the cursors, fairness deadlines and RNG
	// streams that advance as rounds are consumed — which is what makes
	// simulation snapshots resumable under any time model. AppendCursor
	// encodes the state (construction parameters like the fairness window
	// are NOT encoded — the caller re-parses the spec and then restores the
	// cursor into the fresh instance), and RestoreCursor decodes it,
	// returning the unread remainder. A restored scheduler must produce
	// exactly the activation sets the original would have produced from
	// that round on. A stateless scheduler appends nothing and hands its
	// input back.
	AppendCursor(b []byte) []byte
	RestoreCursor(b []byte) ([]byte, error)
}

// FSYNC returns the fully synchronous scheduler: every robot, every round.
// The engine's nil-scheduler fast path is bit-identical to this (proved by
// the determinism tests in internal/fsync); the explicit value exists so the
// general activation-set machinery can be exercised and named in sweeps.
func FSYNC() Scheduler { return fsyncSched{} }

type fsyncSched struct{}

func (fsyncSched) Activate(_ int, cells []grid.Point, _ []int32, active []bool) {
	for i := range cells {
		active[i] = true
	}
}

func (fsyncSched) Fairness(int) int { return 1 }
func (fsyncSched) String() string   { return "fsync" }

// FSYNC is stateless: activation is a pure function of the round.
func (fsyncSched) AppendCursor(b []byte) []byte           { return b }
func (fsyncSched) RestoreCursor(b []byte) ([]byte, error) { return b, nil }

// IsFSYNC reports whether s is the fully synchronous scheduler (or nil,
// which engines treat as FSYNC). Callers use it to route FSYNC runs through
// the engine's faster nil-scheduler path.
func IsFSYNC(s Scheduler) bool {
	if s == nil {
		return true
	}
	_, ok := s.(fsyncSched)
	return ok
}

// RoundRobin returns the SSYNC round-robin scheduler with fairness window
// k: in round r it activates the robots whose index i in the sorted cell
// order satisfies i ≡ r (mod k). The activation set is an interleaved
// 1/k-fraction of the swarm that rotates through the whole population every
// k rounds.
func RoundRobin(k int) Scheduler {
	if k < 1 {
		panic("sched: round-robin window must be >= 1")
	}
	return &roundRobin{k: k}
}

type roundRobin struct{ k int }

// Activate marks every k-th index from round mod k. A negative round has
// a negative remainder, which no index matches.
func (s *roundRobin) Activate(round int, cells []grid.Point, _ []int32, active []bool) {
	for i := round % s.k; i >= 0 && i < len(cells); i += s.k {
		active[i] = true
	}
}

func (s *roundRobin) Fairness(int) int { return s.k }
func (s *roundRobin) String() string   { return fmt.Sprintf("ssync-rr:%d", s.k) }

// Round-robin is stateless: the window k is a construction parameter and
// the activation set is a pure function of the round.
func (s *roundRobin) AppendCursor(b []byte) []byte           { return b }
func (s *roundRobin) RestoreCursor(b []byte) ([]byte, error) { return b, nil }

// deadlines tracks per-robot fairness deadlines in a flat slice indexed by
// the engine's stable robot slot — the round loop no longer hashes cells.
// Slots move with their robot and are never reused after a merge, so a
// robot keeps one deadline entry for its whole life; entries of merged
// robots simply go stale and are never consulted again. A robot's first
// deadline is a seeded spatial hash of its cell (staggering neighbors),
// after which activation pushes the deadline a full window ahead.
// Deadlines only ever lie at most window rounds ahead of the current
// round, so the fairness bound holds for every robot at all times.
type deadlines struct {
	window int
	seed   int64
	dl     []int // slot → deadline+1; 0 = not yet seen
}

func newDeadlines(window int, seed int64) deadlines {
	return deadlines{window: window, seed: seed}
}

// deadline returns the round by which the robot in the given slot must
// activate, assigning a hashed initial phase (from its cell p) the first
// time the robot is seen.
func (d *deadlines) deadline(round int, p grid.Point, slot int32) int {
	if int(slot) < len(d.dl) && d.dl[slot] != 0 {
		return d.dl[slot] - 1
	}
	return round + int(phaseHash(p, d.seed)%uint64(d.window))
}

// commit records whether the robot in the given slot was activated this
// round.
func (d *deadlines) commit(round int, p grid.Point, slot int32, activated bool) {
	for int(slot) >= len(d.dl) {
		d.dl = append(d.dl, 0)
	}
	if activated {
		d.dl[slot] = round + d.window + 1
	} else {
		d.dl[slot] = d.deadline(round, p, slot) + 1
	}
}

// appendCursor encodes the deadline slice (window and seed are
// construction parameters, re-supplied when the spec is re-parsed).
func (d *deadlines) appendCursor(b []byte) []byte {
	b = codec.AppendUvarint(b, uint64(len(d.dl)))
	for _, v := range d.dl {
		b = codec.AppendInt(b, v)
	}
	return b
}

// restoreCursor decodes a deadline slice written by appendCursor.
func (d *deadlines) restoreCursor(b []byte) ([]byte, error) {
	r := codec.NewReader(b)
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > uint64(r.Len()) { // each entry is ≥ 1 byte: cheap corruption guard
		return nil, fmt.Errorf("sched: deadline cursor claims %d entries in %d bytes", n, r.Len())
	}
	dl := make([]int, n)
	for i := range dl {
		dl[i] = r.Int()
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	d.dl = dl
	return r.Rest(), nil
}

// phaseHash mixes a cell and seed into a deterministic pseudo-random phase
// (splitmix64-style finalizer).
func phaseHash(p grid.Point, seed int64) uint64 {
	x := uint64(int64(p.X))*0x9e3779b97f4a7c15 ^ uint64(int64(p.Y))*0xbf58476d1ce4e5b9 ^ uint64(seed)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Random returns the SSYNC random scheduler: each robot is activated
// independently with probability p each round, from a stream seeded by
// seed, with a hard fairness window k — any robot the coin has left asleep
// for k-1 consecutive rounds is activated by force.
func Random(p float64, k int, seed int64) Scheduler {
	if k < 1 {
		panic("sched: random fairness window must be >= 1")
	}
	if p < 0 || p > 1 {
		panic("sched: activation probability outside [0,1]")
	}
	return &random{
		p:   p,
		rng: splitmix.Stream(seed),
		dl:  newDeadlines(k, seed),
	}
}

type random struct {
	p   float64
	rng splitmix.Stream
	dl  deadlines
}

func (s *random) Activate(round int, cells []grid.Point, slots []int32, active []bool) {
	for i, c := range cells {
		on := s.rng.Float64() < s.p || round >= s.dl.deadline(round, c, slots[i])
		active[i] = on
		s.dl.commit(round, c, slots[i], on)
	}
}

func (s *random) Fairness(int) int { return s.dl.window }
func (s *random) String() string   { return fmt.Sprintf("ssync-rand:%d", s.dl.window) }

// AppendCursor encodes the RNG stream position and the fairness deadlines.
func (s *random) AppendCursor(b []byte) []byte {
	b = codec.AppendUvarint(b, uint64(s.rng))
	return s.dl.appendCursor(b)
}

func (s *random) RestoreCursor(b []byte) ([]byte, error) {
	r := codec.NewReader(b)
	state := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	rest, err := s.dl.restoreCursor(r.Rest())
	if err != nil {
		return nil, err
	}
	s.rng = splitmix.Stream(state)
	return rest, nil
}

// Adversarial returns the lazy SSYNC scheduler: every robot sleeps for as
// long as the fairness window k permits and is activated only when its
// deadline arrives. Initial deadlines are staggered by a seeded spatial
// hash, so adjacent robots fire in different rounds — the schedule
// maximizes both delay and desynchronization within the fairness bound,
// which is the adversary's whole freedom in the SSYNC model.
func Adversarial(k int, seed int64) Scheduler {
	if k < 1 {
		panic("sched: adversarial fairness window must be >= 1")
	}
	return &adversarial{dl: newDeadlines(k, seed)}
}

type adversarial struct{ dl deadlines }

func (s *adversarial) Activate(round int, cells []grid.Point, slots []int32, active []bool) {
	for i, c := range cells {
		on := round >= s.dl.deadline(round, c, slots[i])
		active[i] = on
		s.dl.commit(round, c, slots[i], on)
	}
}

func (s *adversarial) Fairness(int) int { return s.dl.window }
func (s *adversarial) String() string   { return fmt.Sprintf("ssync-lazy:%d", s.dl.window) }

// AppendCursor encodes the fairness deadlines (the lazy schedule's only
// mutable state).
func (s *adversarial) AppendCursor(b []byte) []byte { return s.dl.appendCursor(b) }

func (s *adversarial) RestoreCursor(b []byte) ([]byte, error) { return s.dl.restoreCursor(b) }

// Sequential returns the ASYNC wavefront scheduler: a cursor sweeps the
// sorted population activating `width` robots per round, wrapping around
// when it passes the end. Width 1 reproduces the fair sequential scheduler
// of internal/baseline/asyncseq — "only one robot ... active at a time" —
// and larger widths interpolate between that and FSYNC. The cycles of
// robots far apart in scan order are staggered by up to a full sweep,
// modeling asynchrony with atomic look-compute-move cycles.
func Sequential(width int) Scheduler {
	if width < 1 {
		panic("sched: sequential width must be >= 1")
	}
	return &sequential{width: width}
}

type sequential struct {
	width  int
	cursor int
}

func (s *sequential) Activate(_ int, cells []grid.Point, _ []int32, active []bool) {
	n := len(cells)
	if n == 0 {
		return
	}
	s.cursor %= n
	for j := 0; j < s.width && j < n; j++ {
		active[(s.cursor+j)%n] = true
	}
	s.cursor = (s.cursor + s.width) % n
}

func (s *sequential) Fairness(n int) int {
	if n < 1 {
		return 1
	}
	// A full sweep takes ceil(n/width) rounds; the cursor advance is exact,
	// so no robot waits longer than one sweep (+1 for wrap slack while the
	// population shrinks).
	return (n+s.width-1)/s.width + 1
}

func (s *sequential) String() string { return fmt.Sprintf("async:%d", s.width) }

// AppendCursor encodes the wavefront position.
func (s *sequential) AppendCursor(b []byte) []byte {
	return codec.AppendUvarint(b, uint64(s.cursor))
}

func (s *sequential) RestoreCursor(b []byte) ([]byte, error) {
	r := codec.NewReader(b)
	cur := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	s.cursor = int(cur)
	return r.Rest(), nil
}

// Default fairness windows and probabilities for schedulers named without
// explicit parameters. 3 and 5 are coprime to the paper's L = 22.
const (
	defaultWindow     = 3
	defaultLazyWindow = 5
	defaultRandomProb = 0.5
	defaultWidth      = 1
)

// Parse builds a scheduler from a spec string:
//
//	fsync                     every robot every round (also the empty spec)
//	ssync | ssync-rr[:k]      round-robin interleaving, fairness window k (default 3)
//	ssync-rand[:k]            random subsets (p=0.5) with fairness window k (default 3)
//	ssync-lazy[:k]            lazy adversarial schedule, fairness window k (default 5)
//	async[:w]                 sequential wavefront of width w (default 1)
//
// seed feeds the randomized schedulers (coin flips and phase hashes);
// deterministic specs ignore it. The returned scheduler is a fresh instance
// suitable for exactly one simulation.
func Parse(spec string, seed int64) (Scheduler, error) {
	name, arg, err := splitSpec(spec)
	if err != nil {
		return nil, err
	}
	switch name {
	case "", "fsync":
		if arg != 0 {
			return nil, fmt.Errorf("sched: %q takes no parameter", name)
		}
		return FSYNC(), nil
	case "ssync", "ssync-rr":
		return RoundRobin(argOr(arg, defaultWindow)), nil
	case "ssync-rand":
		return Random(defaultRandomProb, argOr(arg, defaultWindow), seed), nil
	case "ssync-lazy":
		return Adversarial(argOr(arg, defaultLazyWindow), seed), nil
	case "async":
		return Sequential(argOr(arg, defaultWidth)), nil
	default:
		return nil, fmt.Errorf("sched: unknown scheduler %q (have %s)", spec, strings.Join(Specs(), ", "))
	}
}

// Randomized reports whether the spec names a scheduler whose behaviour
// depends on the seed passed to Parse. It rejects any spec Parse would
// reject (including well-named specs with bad parameters, e.g. "fsync:2"),
// so callers validating a sweep up front can rely on it alone.
func Randomized(spec string) (bool, error) {
	if _, err := Parse(spec, 1); err != nil {
		return false, err
	}
	name, _, _ := splitSpec(spec)
	return name == "ssync-rand" || name == "ssync-lazy", nil
}

// Specs lists the accepted spec grammars for help output.
func Specs() []string {
	return []string{"fsync", "ssync[-rr][:k]", "ssync-rand[:k]", "ssync-lazy[:k]", "async[:w]"}
}

// splitSpec splits "name[:param]" and parses the optional positive integer
// parameter (0 = absent).
func splitSpec(spec string) (name string, arg int, err error) {
	name, argStr, found := strings.Cut(strings.TrimSpace(spec), ":")
	if !found {
		return name, 0, nil
	}
	v, err := strconv.Atoi(argStr)
	if err != nil || v < 1 {
		return "", 0, fmt.Errorf("sched: bad parameter %q in %q (want a positive integer)", argStr, spec)
	}
	return name, v, nil
}

func argOr(arg, def int) int {
	if arg == 0 {
		return def
	}
	return arg
}
