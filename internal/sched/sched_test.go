package sched

import (
	"testing"

	"gridgather/internal/grid"
)

// cellsN returns n distinct sorted cells (a horizontal line).
func cellsN(n int) []grid.Point {
	out := make([]grid.Point, n)
	for i := range out {
		out[i] = grid.Pt(i, 0)
	}
	return out
}

// activate runs one round and returns a fresh mask. Slots are assigned by
// index, matching the engine's initial assignment over a static population.
func activate(s Scheduler, round int, cells []grid.Point) []bool {
	mask := make([]bool, len(cells))
	slots := make([]int32, len(cells))
	for i := range slots {
		slots[i] = int32(i)
	}
	s.Activate(round, cells, slots, mask)
	return mask
}

func count(mask []bool) int {
	n := 0
	for _, b := range mask {
		if b {
			n++
		}
	}
	return n
}

func TestFSYNCActivatesEveryone(t *testing.T) {
	s := FSYNC()
	cells := cellsN(17)
	for round := 0; round < 5; round++ {
		if got := count(activate(s, round, cells)); got != len(cells) {
			t.Fatalf("round %d: fsync activated %d of %d", round, got, len(cells))
		}
	}
	if s.Fairness(100) != 1 {
		t.Errorf("fsync fairness = %d, want 1", s.Fairness(100))
	}
	if !IsFSYNC(s) || !IsFSYNC(nil) || IsFSYNC(RoundRobin(2)) {
		t.Error("IsFSYNC misclassifies")
	}
}

// fairnessWindow checks that under the scheduler every cell of a static
// population is activated at least once in every window of s.Fairness(n)
// consecutive rounds.
func fairnessWindow(t *testing.T, s Scheduler, cells []grid.Point, rounds int) {
	t.Helper()
	k := s.Fairness(len(cells))
	idle := make([]int, len(cells))
	for round := 0; round < rounds; round++ {
		mask := activate(s, round, cells)
		for i := range cells {
			if mask[i] {
				idle[i] = 0
			} else {
				idle[i]++
				if idle[i] >= k {
					t.Fatalf("cell %v slept %d rounds, fairness bound %d (round %d)",
						cells[i], idle[i], k, round)
				}
			}
		}
	}
}

func TestRoundRobinFairness(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5} {
		fairnessWindow(t, RoundRobin(k), cellsN(23), 6*k+10)
	}
}

func TestRoundRobinPartition(t *testing.T) {
	// Over k consecutive rounds every index is activated exactly once.
	const k, n = 4, 19
	s := RoundRobin(k)
	cells := cellsN(n)
	hits := make([]int, n)
	for round := 0; round < k; round++ {
		for i, on := range activate(s, round, cells) {
			if on {
				hits[i]++
			}
		}
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d activated %d times in one window, want 1", i, h)
		}
	}
}

// Round-robin activates exactly the indices its definition names,
// i ≡ round (mod k) with Go's truncated remainder, so a negative round
// activates nobody unless k divides it.
func TestRoundRobinMatchesModulo(t *testing.T) {
	for k := 1; k <= 5; k++ {
		for _, n := range []int{0, 1, k - 1, k, k + 1, 100} {
			cells := cellsN(n)
			for round := -2 * k; round <= 2*k; round++ {
				for i, on := range activate(RoundRobin(k), round, cells) {
					if want := i%k == round%k; on != want {
						t.Fatalf("k=%d n=%d round %d: index %d active=%v, want %v", k, n, round, i, on, want)
					}
				}
			}
		}
	}
}

func TestRandomDeterministicAndFair(t *testing.T) {
	cells := cellsN(31)
	a, b := Random(0.5, 4, 7), Random(0.5, 4, 7)
	for round := 0; round < 40; round++ {
		ma, mb := activate(a, round, cells), activate(b, round, cells)
		for i := range ma {
			if ma[i] != mb[i] {
				t.Fatalf("round %d: same seed diverged at index %d", round, i)
			}
		}
	}
	fairnessWindow(t, Random(0.5, 4, 99), cells, 200)
	// p=0 degenerates to the lazy scheduler: still fair.
	fairnessWindow(t, Random(0, 3, 1), cells, 100)
}

func TestAdversarialLazyAndStaggered(t *testing.T) {
	cells := cellsN(40)
	fairnessWindow(t, Adversarial(5, 3), cells, 200)

	// Activations are staggered: after the hashed warm-up phases, each round
	// activates only ~n/k robots, never the whole population at once.
	s := Adversarial(5, 3)
	sawPartial := false
	for round := 0; round < 50; round++ {
		c := count(activate(s, round, cells))
		if c > 0 && c < len(cells) {
			sawPartial = true
		}
		if round >= 5 && c == len(cells) {
			t.Fatalf("round %d: lazy scheduler activated everyone at once", round)
		}
	}
	if !sawPartial {
		t.Error("lazy scheduler never produced a partial activation set")
	}
}

func TestSequentialWavefront(t *testing.T) {
	const n = 13
	cells := cellsN(n)

	// Width 1: exactly one robot per round, cycling through all of them —
	// the asyncseq baseline's fair sequential schedule.
	s := Sequential(1)
	seen := make([]bool, n)
	for round := 0; round < n; round++ {
		mask := activate(s, round, cells)
		if count(mask) != 1 {
			t.Fatalf("round %d: width-1 activated %d robots", round, count(mask))
		}
		for i, on := range mask {
			if on {
				seen[i] = true
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("index %d never activated in one sweep", i)
		}
	}

	// Wider fronts stay within the fairness bound.
	fairnessWindow(t, Sequential(4), cells, 100)
	fairnessWindow(t, Sequential(n+5), cells, 20) // width > population
}

func TestSequentialShrinkingPopulation(t *testing.T) {
	// The cursor must keep covering everything as the population shrinks
	// (merges remove robots between rounds).
	s := Sequential(3)
	for n := 20; n >= 1; n-- {
		cells := cellsN(n)
		sweep := s.Fairness(n)
		seen := make(map[grid.Point]bool)
		for round := 0; round < sweep; round++ {
			for i, on := range activate(s, round, cells) {
				if on {
					seen[cells[i]] = true
				}
			}
		}
		if len(seen) != n {
			t.Fatalf("n=%d: only %d of %d cells activated within fairness window", n, len(seen), n)
		}
	}
}

func TestParse(t *testing.T) {
	good := map[string]string{
		"":             "fsync",
		"fsync":        "fsync",
		"ssync":        "ssync-rr:3",
		"ssync-rr":     "ssync-rr:3",
		"ssync-rr:7":   "ssync-rr:7",
		"ssync-rand":   "ssync-rand:3",
		"ssync-rand:4": "ssync-rand:4",
		"ssync-lazy":   "ssync-lazy:5",
		"ssync-lazy:2": "ssync-lazy:2",
		"async":        "async:1",
		"async:16":     "async:16",
	}
	for spec, want := range good {
		s, err := Parse(spec, 1)
		if err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
			continue
		}
		if s.String() != want {
			t.Errorf("Parse(%q) = %q, want %q", spec, s.String(), want)
		}
	}
	for _, spec := range []string{"nope", "fsync:2", "ssync-rr:0", "ssync-rr:x", "async:-1"} {
		if _, err := Parse(spec, 1); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestRandomized(t *testing.T) {
	cases := map[string]bool{
		"fsync": false, "": false, "ssync": false, "ssync-rr:4": false,
		"async:2": false, "ssync-rand": true, "ssync-lazy:3": true,
	}
	for spec, want := range cases {
		got, err := Randomized(spec)
		if err != nil {
			t.Errorf("Randomized(%q): %v", spec, err)
			continue
		}
		if got != want {
			t.Errorf("Randomized(%q) = %v, want %v", spec, got, want)
		}
	}
	if _, err := Randomized("bogus"); err == nil {
		t.Error("Randomized(bogus) succeeded, want error")
	}
	// Randomized must reject everything Parse rejects, including known
	// names with bad parameters — sweep expansion validates specs with it.
	for _, spec := range []string{"fsync:2", "ssync-rr:0", "async:x"} {
		if _, err := Randomized(spec); err == nil {
			t.Errorf("Randomized(%q) succeeded, want error", spec)
		}
	}
}
