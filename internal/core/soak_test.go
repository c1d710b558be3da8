package core

import (
	"testing"

	"gridgather/internal/fsync"
)

// TestSoakRandomCorpus runs full gathering simulations over a wide corpus
// of random connected swarms with every invariant enabled. This is the
// repository's empirical Theorem 1: every input gathers, connectivity never
// breaks, rounds stay within a linear budget.
func TestSoakRandomCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := int64(0); seed < 60; seed++ {
		n := 40 + int(seed*7)%140
		s := randomConnected(n, seed)
		g := Default()
		eng := fsync.New(s, g, fsync.Config{
			MaxRounds:         60*n + 500,
			CheckConnectivity: true,
			StrictViews:       true,
			NoMergeLimit:      30*n + 300,
		})
		res := eng.Run()
		if res.Err != nil || !res.Gathered {
			t.Fatalf("seed %d n=%d: %+v\nstate:\n%s", seed, n, res, eng.Swarm())
		}
		if res.Rounds > 30*n+200 {
			t.Errorf("seed %d n=%d: %d rounds exceeds linear budget", seed, n, res.Rounds)
		}
	}
}

// TestSoakPerRoundInvariants runs medium swarms and asserts after every
// round: connectivity, monotone population, and bounded speed (the engine
// rejects >1-cell moves itself).
func TestSoakPerRoundInvariants(t *testing.T) {
	for seed := int64(100); seed < 112; seed++ {
		s := randomConnected(90, seed)
		prev := s.Len()
		g := Default()
		eng := fsync.New(s, g, fsync.Config{
			CheckConnectivity: true,
			StrictViews:       true,
		})
		for !eng.Gathered() {
			if eng.Round() >= 20000 {
				t.Fatalf("seed %d: not gathered in %d rounds", seed, eng.Round())
			}
			if err := eng.Step(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if n := eng.World().Len(); n > prev {
				t.Fatalf("seed %d: population grew at round %d", seed, eng.Round())
			}
			prev = eng.World().Len()
		}
	}
}
