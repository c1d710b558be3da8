package gridgather

import (
	"testing"
)

// The quiescence fast path is on by default and surfaces its counters
// through Status and Metrics; WithStrictLocality disables it (a skipped
// robot would prove nothing about locality) with identical simulation
// results. The engine-level differential suites prove bit-identity against
// full recomputation exhaustively; this pins the public wiring. The
// workload is a solid block large enough that its interior lies beyond
// the view radius of the moving frontier — a hollow ring this small never
// quiesces, every robot sees the frontier.
func TestQuiescencePublicSurface(t *testing.T) {
	const rounds = 60
	cells := mustWorkload(t, "solid", 4096)

	quick := mustNew(t, cells, WithConnectivityCheck(true))
	strict := mustNew(t, cells, WithConnectivityCheck(true), WithStrictLocality(true))
	for r := 0; r < rounds; r++ {
		if err := quick.Step(); err != nil {
			t.Fatal(err)
		}
		if err := strict.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if rq, rs := quick.Result(), strict.Result(); rq != rs {
		t.Fatalf("quiescent result %+v != strict-locality result %+v", rq, rs)
	}

	m := quick.Metrics()
	if m.QuiesceComputed == 0 {
		t.Fatal("QuiesceComputed = 0: the engine never computed anything")
	}
	if m.QuiesceSkipped == 0 {
		t.Fatal("QuiesceSkipped = 0: the fast path never engaged on a solid n=4096 block")
	}
	if r := m.QuiescentRatio; r <= 0 || r >= 1 {
		t.Fatalf("QuiescentRatio = %v, want in (0, 1)", r)
	}
	if got := quick.Status().QuiescentRatio; got != m.QuiescentRatio {
		t.Fatalf("Status ratio %v != Metrics ratio %v", got, m.QuiescentRatio)
	}
	if ms := strict.Metrics(); ms.QuiesceComputed != 0 || ms.QuiesceSkipped != 0 || ms.QuiescentRatio != 0 {
		t.Fatalf("strict-locality session reports quiescence activity: %+v", ms)
	}
}
