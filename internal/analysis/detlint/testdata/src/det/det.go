// Package det seeds every detlint violation class plus the escapes.
//
//gather:deterministic
package det

import (
	"maps"
	"math/rand"
	"time"
)

func mapRange(m map[int]int) int {
	s := 0
	for k := range m { // want `map iteration order is nondeterministic`
		s += k
	}
	return s
}

func clock() time.Time {
	return time.Now() // want `wall-clock reads are nondeterministic`
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want `wall-clock reads are nondeterministic`
}

func rng() int {
	return rand.Int() // want `math/rand is unseeded or globally shared`
}

func keyOrder(m map[int]int) {
	for range maps.Keys(m) { // want `maps.Keys yields map order`
	}
}

func spawn(done chan struct{}) {
	go close(done) // want `goroutine spawn in deterministic package`
}

func escapedRange(m map[int]int) int {
	s := 0
	//gather:nondet-ok summation is order-independent
	for k := range m {
		s += k
	}
	return s
}

func escapedSpawn(done chan struct{}) {
	go close(done) //gather:nondet-ok the caller joins before reading
}

// durations stay fine: only clock reads are flagged.
const tick = 10 * time.Millisecond

func sorted(xs []int) []int { // slices are order-stable: no findings
	return xs
}
