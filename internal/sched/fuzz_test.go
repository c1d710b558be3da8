package sched_test

import (
	"testing"

	"gridgather/internal/core"
	"gridgather/internal/fsync"
	"gridgather/internal/gen"
	"gridgather/internal/sched"
)

// FuzzSchedSpec feeds arbitrary spec strings to the scheduler parser.
// Randomized must reject exactly the specs Parse rejects, as its doc
// comment promises, and every spec that parses must drive a few engine
// rounds on a small swarm without panicking.
func FuzzSchedSpec(f *testing.F) {
	for _, spec := range sched.Specs() {
		f.Add(spec, int64(1))
	}
	for _, spec := range []string{
		"", "fsync", "ssync", "ssync-rr:3", "ssync-rand:4", "ssync-lazy", "async:2",
		"async:9223372036854775807", "ssync-lazy:9223372036854775807",
		"fsync:2", "ssync-rr:", ":3", " ssync-rand:1 ", "async:-1", "async:0x10",
	} {
		f.Add(spec, int64(7))
	}
	f.Fuzz(func(t *testing.T, spec string, seed int64) {
		sch, perr := sched.Parse(spec, seed)
		_, rerr := sched.Randomized(spec)
		if (perr == nil) != (rerr == nil) {
			t.Fatalf("spec %q: Parse error %v, Randomized error %v", spec, perr, rerr)
		}
		if perr != nil {
			return
		}
		s := gen.Hollow(5, 4)
		budget := fsync.DefaultBudget(s.Len()).Scale(sch.Fairness(s.Len()))
		eng := fsync.New(s, core.Default(), fsync.Config{Scheduler: sch, MaxRounds: budget.MaxRounds})
		for r := 0; r < 4; r++ {
			if err := eng.Step(); err != nil {
				t.Fatalf("spec %q round %d: %v", spec, r, err)
			}
		}
	})
}
