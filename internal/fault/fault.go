// Package fault is the deterministic fault-injection layer: a Plan parsed
// from a spec string derives crash-stop decisions and sensor-noise flips
// from per-clause splitmix64 streams, so faulty runs are exactly as
// reproducible — and as snapshot-resumable — as clean ones. The engine owns
// the semantics (a crashed robot freezes forever as an occupied,
// mergeable-onto cell; noise flips one cell per activated view); this
// package owns the randomness and its checkpoint encoding.
//
// Spec grammar (clauses joined by "+", each with an optional "@seed"
// overriding the stream seed for that clause):
//
//	crash:p=0.001           each alive robot crashes with probability p per round
//	crash-at:r=500,k=32     at round r, exactly min(k, alive) robots crash at once
//	noise:p=0.01            each activated robot's view gets one flipped cell w.p. p
//
// "", "off" and "none" parse to a nil Plan (fault-free). Without "@seed" a
// clause's stream derives from the simulation seed, so faults vary across
// sweep seeds like ssync-rand's coin flips do; with "@seed" the fault
// schedule is pinned independently of the simulation seed.
//
//gather:deterministic
package fault

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"gridgather/internal/codec"
	"gridgather/internal/grid"
	"gridgather/internal/splitmix"
)

// ErrBadSpec is wrapped by every Parse failure; match with errors.Is.
var ErrBadSpec = errors.New("fault: bad spec")

// Clause kinds.
const (
	kindCrashP  = iota // crash:p=<float> — per-robot per-round coin
	kindCrashAt        // crash-at:r=<round>,k=<count> — one-shot mass crash
	kindNoise          // noise:p=<float> — per-activation view flip coin
)

// clause is one parsed fault source with its own RNG stream. The stream
// state (and the one-shot fired latch) is the only mutable state; the rest
// is construction parameters re-derived from the spec on restore.
type clause struct {
	kind   int
	p      float64 // crash / noise probability
	r      int     // crash-at round
	k      int     // crash-at count
	seeded bool    // explicit @seed in the spec
	seed   int64   // the explicit seed (only meaningful when seeded)
	rng    splitmix.Stream
	fired  bool // crash-at already executed
}

// Plan is a parsed, seeded fault schedule for exactly one simulation. The
// zero number of clauses never occurs: empty specs parse to a nil *Plan,
// and all code paths treat nil as "no faults".
type Plan struct {
	clauses []clause
}

// Parse builds a Plan from a spec string, seeding each clause's stream.
// Clauses without an explicit "@seed" derive their stream from seed (and
// their position, so two identical clauses get distinct streams); clauses
// with "@seed" ignore the simulation seed entirely. Empty, "off" and
// "none" specs return (nil, nil). Malformed specs fail fast with errors
// wrapping ErrBadSpec.
func Parse(spec string, seed int64) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" || spec == "none" {
		return nil, nil
	}
	var p Plan
	for i, raw := range strings.Split(spec, "+") {
		c, err := parseClause(raw)
		if err != nil {
			return nil, err
		}
		if c.seeded {
			c.rng = splitmix.Stream(c.seed)
		} else {
			// Golden-ratio stride keeps same-seed clause streams apart.
			c.rng = splitmix.Stream(uint64(seed) + 0x9e3779b97f4a7c15*uint64(i+1))
		}
		p.clauses = append(p.clauses, c)
	}
	return &p, nil
}

// parseClause parses one "name:key=value[,key=value][@seed]" clause.
func parseClause(raw string) (clause, error) {
	var c clause
	body, seedStr, hasSeed := strings.Cut(strings.TrimSpace(raw), "@")
	if hasSeed {
		v, err := strconv.ParseInt(seedStr, 10, 64)
		if err != nil {
			return c, fmt.Errorf("%w: bad seed %q in clause %q", ErrBadSpec, seedStr, raw)
		}
		c.seeded, c.seed = true, v
	}
	name, args, hasArgs := strings.Cut(body, ":")
	if !hasArgs || args == "" {
		return c, fmt.Errorf("%w: clause %q needs parameters (grammar: %s)", ErrBadSpec, raw, strings.Join(Specs(), ", "))
	}
	switch name {
	case "crash":
		c.kind = kindCrashP
	case "crash-at":
		c.kind = kindCrashAt
	case "noise":
		c.kind = kindNoise
	default:
		return c, fmt.Errorf("%w: unknown fault %q (grammar: %s)", ErrBadSpec, name, strings.Join(Specs(), ", "))
	}
	seen := map[string]bool{}
	for _, kv := range strings.Split(args, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return c, fmt.Errorf("%w: bad parameter %q in clause %q (want key=value)", ErrBadSpec, kv, raw)
		}
		if seen[key] {
			return c, fmt.Errorf("%w: duplicate parameter %q in clause %q", ErrBadSpec, key, raw)
		}
		seen[key] = true
		switch {
		case key == "p" && c.kind != kindCrashAt:
			v, err := strconv.ParseFloat(val, 64)
			// The negated range check also rejects NaN, which compares
			// false against both bounds.
			if err != nil || !(v >= 0 && v <= 1) {
				return c, fmt.Errorf("%w: bad probability %q in clause %q (want a float in [0,1])", ErrBadSpec, val, raw)
			}
			c.p = v
		case key == "r" && c.kind == kindCrashAt:
			v, err := strconv.Atoi(val)
			if err != nil || v < 0 {
				return c, fmt.Errorf("%w: bad round %q in clause %q (want a non-negative integer)", ErrBadSpec, val, raw)
			}
			c.r = v
		case key == "k" && c.kind == kindCrashAt:
			v, err := strconv.Atoi(val)
			if err != nil || v < 1 {
				return c, fmt.Errorf("%w: bad count %q in clause %q (want a positive integer)", ErrBadSpec, val, raw)
			}
			c.k = v
		default:
			return c, fmt.Errorf("%w: unknown parameter %q in clause %q", ErrBadSpec, key, raw)
		}
	}
	if c.kind == kindCrashAt && !seen["k"] {
		return c, fmt.Errorf("%w: clause %q needs k=<count>", ErrBadSpec, raw)
	}
	if c.kind != kindCrashAt && !seen["p"] {
		return c, fmt.Errorf("%w: clause %q needs p=<probability>", ErrBadSpec, raw)
	}
	return c, nil
}

// Specs lists the accepted clause grammars for help output.
func Specs() []string {
	return []string{"crash:p=<prob>[@seed]", "crash-at:r=<round>,k=<count>[@seed]", "noise:p=<prob>[@seed]"}
}

// Seeded reports whether the spec's fault schedule depends on the
// simulation seed — i.e. whether any clause lacks an explicit "@seed".
// It rejects any spec Parse would reject, so sweep validation can rely on
// it alone. Empty/off/none specs are not seeded.
func Seeded(spec string) (bool, error) {
	p, err := Parse(spec, 1)
	if err != nil || p == nil {
		return false, err
	}
	for i := range p.clauses {
		if !p.clauses[i].seeded {
			return true, nil
		}
	}
	return false, nil
}

// HasCrashes reports whether the plan contains any crash clause. Engines
// use it to route activation through the crash-aware path.
func (p *Plan) HasCrashes() bool {
	if p == nil {
		return false
	}
	for i := range p.clauses {
		if p.clauses[i].kind != kindNoise {
			return true
		}
	}
	return false
}

// HasNoise reports whether the plan contains any noise clause.
func (p *Plan) HasNoise() bool {
	if p == nil {
		return false
	}
	for i := range p.clauses {
		if p.clauses[i].kind == kindNoise {
			return true
		}
	}
	return false
}

// DrawCrashes draws this round's crash decisions over the population in
// canonical cell order: alive[i] reports whether robot i is still live
// going into the round, and DrawCrashes clears the entries of robots that
// crash now, returning how many it cleared. Streams advance only for live
// robots (crash:p) or on the firing round (crash-at), so consumption — and
// therefore every later draw — is a deterministic function of the plan and
// the round history.
func (p *Plan) DrawCrashes(round int, alive []bool) int {
	if p == nil {
		return 0
	}
	crashed := 0
	for ci := range p.clauses {
		c := &p.clauses[ci]
		switch c.kind {
		case kindCrashP:
			if c.p == 0 {
				continue
			}
			for i := range alive {
				if alive[i] && c.rng.Float64() < c.p {
					alive[i] = false
					crashed++
				}
			}
		case kindCrashAt:
			if c.fired || round < c.r {
				continue
			}
			c.fired = true
			remaining := 0
			for i := range alive {
				if alive[i] {
					remaining++
				}
			}
			need := min(c.k, remaining)
			// Selection sampling: pick exactly `need` of the `remaining`
			// live robots uniformly, in one canonical-order pass.
			for i := range alive {
				if need == 0 {
					break
				}
				if !alive[i] {
					continue
				}
				if c.rng.Next()%uint64(remaining) < uint64(need) {
					alive[i] = false
					crashed++
					need--
				}
				remaining--
			}
		}
	}
	return crashed
}

// NoiseFlip draws one activation's view perturbation: with each noise
// clause's probability, a single relative cell within the L1 view radius
// gets its occupancy reading inverted. It returns the flip offset and
// whether any clause fired (the last firing clause wins). Streams advance
// exactly one coin per call per clause (plus the offset draws of firing
// clauses), so consumption is deterministic per activation sequence.
func (p *Plan) NoiseFlip(radius int) (grid.Point, bool) {
	var off grid.Point
	fired := false
	if p == nil || radius < 1 {
		return off, false
	}
	for ci := range p.clauses {
		c := &p.clauses[ci]
		if c.kind != kindNoise || c.p == 0 {
			continue
		}
		if c.rng.Float64() >= c.p {
			continue
		}
		// Rejection-sample a non-center offset inside the L1 ball (views
		// reject reads beyond radius in L1). Acceptance is ≥ 2/(2r+1)²·r
		// of the square, so the loop terminates fast in practice.
		for {
			span := uint64(2*radius + 1)
			dx := int(c.rng.Next()%span) - radius
			dy := int(c.rng.Next()%span) - radius
			if d := abs(dx) + abs(dy); d >= 1 && d <= radius {
				off, fired = grid.Point{X: dx, Y: dy}, true
				break
			}
		}
	}
	return off, fired
}

// String renders the plan canonically: clauses in parse order, parameters
// in grammar order, probabilities in shortest round-trip form, "@seed"
// only where the spec pinned one. Sweep aggregation groups on this.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var sb strings.Builder
	for i := range p.clauses {
		c := &p.clauses[i]
		if i > 0 {
			sb.WriteByte('+')
		}
		switch c.kind {
		case kindCrashP:
			sb.WriteString("crash:p=")
			sb.WriteString(strconv.FormatFloat(c.p, 'g', -1, 64))
		case kindCrashAt:
			fmt.Fprintf(&sb, "crash-at:r=%d,k=%d", c.r, c.k)
		case kindNoise:
			sb.WriteString("noise:p=")
			sb.WriteString(strconv.FormatFloat(c.p, 'g', -1, 64))
		}
		if c.seeded {
			fmt.Fprintf(&sb, "@%d", c.seed)
		}
	}
	return sb.String()
}

// AppendCursor encodes the plan's mutable state — each clause's RNG
// position and one-shot latch — in clause order. Construction parameters
// are not encoded: the restore path re-parses the spec and then restores
// the cursor into the fresh plan, as sched.Scheduler's cursor methods do.
func (p *Plan) AppendCursor(b []byte) []byte {
	for i := range p.clauses {
		c := &p.clauses[i]
		b = codec.AppendUvarint(b, uint64(c.rng))
		if c.kind == kindCrashAt {
			b = codec.AppendBool(b, c.fired)
		}
	}
	return b
}

// RestoreCursor decodes AppendCursor's encoding into a freshly parsed
// plan, returning the unread remainder.
func (p *Plan) RestoreCursor(b []byte) ([]byte, error) {
	r := codec.NewReader(b)
	for i := range p.clauses {
		c := &p.clauses[i]
		c.rng = splitmix.Stream(r.Uvarint())
		if c.kind == kindCrashAt {
			c.fired = r.Bool()
		}
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	return r.Rest(), nil
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
