// Package cleanfixture opts into every gatherlint contract and violates
// none of them: the smoke test's known-clean baseline.
//
//gather:deterministic
package cleanfixture

import "sort"

// Grid is a tiny stateful shape.
type Grid struct {
	serial int
	Clocks []int
}

// Reset sorts the clocks deterministically.
func (g *Grid) Reset() {
	g.serial = 0
	sort.Ints(g.Clocks)
}

//gather:hotpath
func Sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}
