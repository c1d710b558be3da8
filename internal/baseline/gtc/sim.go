package gtc

import (
	"fmt"
	"math"
)

// Params configure the go-to-center simulation.
type Params struct {
	// Viewing is the viewing/connectivity radius V: robots see (and are
	// connected to) robots within Euclidean distance V.
	Viewing float64
	// MaxStep caps the distance moved per round.
	MaxStep float64
	// SnapEps collapses robots closer than this into one (point-shaped
	// robots that meet merge, as in the grid model).
	SnapEps float64
	// GatherDiameter: the swarm counts as gathered when its diameter is at
	// most this (the analogue of the grid's 2×2 target).
	GatherDiameter float64
}

// DefaultParams returns the classic unit-disk parameters.
func DefaultParams() Params {
	return Params{
		Viewing:        2.0,
		MaxStep:        1.0,
		SnapEps:        1e-6,
		GatherDiameter: 1.0,
	}
}

// Result of a plane simulation.
type Result struct {
	Gathered      bool
	Rounds        int
	Merges        int
	InitialRobots int
	FinalRobots   int
	Err           error
}

// Sim is the FSYNC plane simulator running the [DKL+11] go-to-center rule:
// each round every robot computes the smallest enclosing circle of its
// visible neighborhood (including itself) and moves toward its center, with
// movement limited so that no connectivity edge can break: for every
// visible neighbor at q the robot stays within the disk of radius V/2
// around the midpoint (p+q)/2 (both endpoints of an edge remain within V of
// each other).
type Sim struct {
	P      Params
	pos    []Vec
	rounds int
	merges int
}

// NewSim builds a simulator over the given robot positions.
func NewSim(pos []Vec, p Params) *Sim {
	cp := make([]Vec, len(pos))
	copy(cp, pos)
	return &Sim{P: p, pos: cp}
}

// Positions returns a copy of the current robot positions.
func (s *Sim) Positions() []Vec {
	cp := make([]Vec, len(s.pos))
	copy(cp, s.pos)
	return cp
}

// Rounds returns the number of completed rounds.
func (s *Sim) Rounds() int { return s.rounds }

// Diameter returns the maximum pairwise distance.
func (s *Sim) Diameter() float64 {
	d := 0.0
	for i := range s.pos {
		for j := i + 1; j < len(s.pos); j++ {
			if dd := Dist(s.pos[i], s.pos[j]); dd > d {
				d = dd
			}
		}
	}
	return d
}

// Connected reports whether the unit-disk graph (radius Viewing) over the
// robots is connected.
func (s *Sim) Connected() bool {
	n := len(s.pos)
	if n <= 1 {
		return true
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	cnt := 1
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for j := 0; j < n; j++ {
			if !seen[j] && Dist(s.pos[i], s.pos[j]) <= s.P.Viewing+1e-9 {
				seen[j] = true
				cnt++
				stack = append(stack, j)
			}
		}
	}
	return cnt == n
}

// Gathered reports whether the diameter is within the gathering target.
func (s *Sim) Gathered() bool { return s.Diameter() <= s.P.GatherDiameter }

// Step executes one FSYNC round.
func (s *Sim) Step() {
	n := len(s.pos)
	next := make([]Vec, n)
	for i := 0; i < n; i++ {
		next[i] = s.target(i)
	}
	s.pos = next
	s.rounds++
	s.snapMerge()
}

// target computes robot i's new position under the go-to-center rule.
func (s *Sim) target(i int) Vec {
	p := s.pos[i]
	var visible []Vec
	for j, q := range s.pos {
		if j == i {
			continue
		}
		if Dist(p, q) <= s.P.Viewing+1e-9 {
			visible = append(visible, q)
		}
	}
	if len(visible) == 0 {
		return p // isolated robot (single robot swarm) stays
	}
	all := append([]Vec{p}, visible...)
	sec := SmallestEnclosingCircle(all)
	dir := sec.C.Sub(p)
	dist := dir.Norm()
	if dist < 1e-12 {
		return p
	}
	// Movement limit: cap by MaxStep and by every neighbor's midpoint disk.
	tMax := 1.0
	if dist > s.P.MaxStep {
		tMax = s.P.MaxStep / dist
	}
	for _, q := range visible {
		t := maxTInDisk(p, dir, Mid(p, q), s.P.Viewing/2)
		if t < tMax {
			tMax = t
		}
	}
	if tMax <= 0 {
		return p
	}
	return p.Add(dir.Scale(tMax))
}

// maxTInDisk returns the largest t ∈ [0,1] such that p + t·u stays inside
// the closed disk around m with radius r. p itself is assumed inside.
func maxTInDisk(p, u Vec, m Vec, r float64) float64 {
	// |p + t·u - m|² ≤ r²  with a = |u|², b = 2·u·(p-m), c = |p-m|² - r².
	w := p.Sub(m)
	a := u.Dot(u)
	if a < 1e-18 {
		return 1
	}
	b := 2 * u.Dot(w)
	c := w.Dot(w) - r*r
	disc := b*b - 4*a*c
	if disc < 0 {
		return 0
	}
	t := (-b + math.Sqrt(disc)) / (2 * a)
	if t > 1 {
		t = 1
	}
	if t < 0 {
		t = 0
	}
	return t
}

// snapMerge collapses robots within SnapEps of each other.
func (s *Sim) snapMerge() {
	n := len(s.pos)
	keep := make([]bool, n)
	for i := range keep {
		keep[i] = true
	}
	for i := 0; i < n; i++ {
		if !keep[i] {
			continue
		}
		for j := i + 1; j < n; j++ {
			if keep[j] && Dist(s.pos[i], s.pos[j]) <= s.P.SnapEps {
				keep[j] = false
				s.merges++
			}
		}
	}
	out := s.pos[:0]
	for i, k := range keep {
		if k {
			out = append(out, s.pos[i])
		}
	}
	s.pos = out
}

// Run simulates until gathered or the round limit is hit.
func (s *Sim) Run(maxRounds int) Result {
	res := Result{InitialRobots: len(s.pos)}
	for !s.Gathered() {
		if s.rounds >= maxRounds {
			res.Err = fmt.Errorf("gtc: round limit %d reached (diameter %.3f)", maxRounds, s.Diameter())
			break
		}
		s.Step()
	}
	res.Gathered = s.Gathered()
	res.Rounds = s.rounds
	res.Merges = s.merges
	res.FinalRobots = len(s.pos)
	return res
}

// LineInstance returns n robots on a line spaced so that consecutive robots
// are connected (spacing strictly below the viewing radius) — the classic
// worst-case-shaped input for go-to-center.
func LineInstance(n int, spacing float64) []Vec {
	out := make([]Vec, n)
	for i := range out {
		out[i] = Vec{X: float64(i) * spacing}
	}
	return out
}

// CircleInstance returns n robots on a circle with the given chord spacing.
func CircleInstance(n int, spacing float64) []Vec {
	// Chord length s between adjacent robots on a circle of radius R with n
	// points: s = 2R·sin(π/n)  ⇒  R = s / (2 sin(π/n)).
	r := spacing / (2 * math.Sin(math.Pi/float64(n)))
	out := make([]Vec, n)
	for i := range out {
		a := 2 * math.Pi * float64(i) / float64(n)
		out[i] = Vec{X: r * math.Cos(a), Y: r * math.Sin(a)}
	}
	return out
}
