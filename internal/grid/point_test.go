package grid

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p, q := Pt(3, -2), Pt(-1, 5)
	if got := p.Add(q); got != Pt(2, 3) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != Pt(4, -7) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Neg(); got != Pt(-3, 2) {
		t.Errorf("Neg = %v", got)
	}
	if got := p.Scale(2); got != Pt(6, -4) {
		t.Errorf("Scale = %v", got)
	}
}

func TestNorms(t *testing.T) {
	cases := []struct {
		p        Point
		l1, linf int
	}{
		{Pt(0, 0), 0, 0},
		{Pt(3, 4), 7, 4},
		{Pt(-3, 4), 7, 4},
		{Pt(-5, -2), 7, 5},
		{Pt(1, 0), 1, 1},
		{Pt(1, 1), 2, 1},
	}
	for _, c := range cases {
		if got := c.p.L1(); got != c.l1 {
			t.Errorf("L1(%v) = %d, want %d", c.p, got, c.l1)
		}
		if got := c.p.Linf(); got != c.linf {
			t.Errorf("Linf(%v) = %d, want %d", c.p, got, c.linf)
		}
	}
}

func TestDistances(t *testing.T) {
	if got := L1Dist(Pt(1, 1), Pt(4, 5)); got != 7 {
		t.Errorf("L1Dist = %d", got)
	}
}

func TestUnitPredicates(t *testing.T) {
	for _, d := range Axis4 {
		if !d.IsUnit() {
			t.Errorf("%v should be axis unit", d)
		}
		if d.IsDiagonalUnit() {
			t.Errorf("%v should not be diagonal unit", d)
		}
	}
	for _, d := range []Point{NorthEast, NorthWest, SouthEast, SouthWest} {
		if d.IsUnit() {
			t.Errorf("%v should not be axis unit", d)
		}
		if !d.IsDiagonalUnit() {
			t.Errorf("%v should be diagonal unit", d)
		}
	}
}

func TestPerp(t *testing.T) {
	if got := North.PerpCW(); got != East {
		t.Errorf("North cw = %v", got)
	}
	if got := East.PerpCW(); got != South {
		t.Errorf("East cw = %v", got)
	}
	if got := North.PerpCCW(); got != West {
		t.Errorf("North ccw = %v", got)
	}
	// Perpendicular twice is negation.
	for _, d := range Axis4 {
		if got := d.PerpCW().PerpCW(); got != d.Neg() {
			t.Errorf("double perp of %v = %v", d, got)
		}
	}
}

func TestLessIsStrictTotalOrder(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(1, 0), Pt(0, 1), Pt(-1, 2), Pt(3, -4)}
	for _, a := range pts {
		if a.Less(a) {
			t.Errorf("%v < %v", a, a)
		}
		for _, b := range pts {
			if a != b && a.Less(b) == b.Less(a) {
				t.Errorf("order not antisymmetric for %v,%v", a, b)
			}
		}
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int8) bool {
		a, b, c := Pt(int(ax), int(ay)), Pt(int(bx), int(by)), Pt(int(cx), int(cy))
		return L1Dist(a, c) <= L1Dist(a, b)+L1Dist(b, c) &&
			a.Sub(c).Linf() <= a.Sub(b).Linf()+b.Sub(c).Linf()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestNormRelationProperty(t *testing.T) {
	// L∞ ≤ L1 ≤ 2·L∞ on Z².
	f := func(x, y int16) bool {
		p := Pt(int(x), int(y))
		return p.Linf() <= p.L1() && p.L1() <= 2*p.Linf()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

func TestNeighbors(t *testing.T) {
	p := Pt(2, 3)
	n4 := Neighbors4(p)
	if len(n4) != 4 {
		t.Fatalf("len = %d", len(n4))
	}
	for _, q := range n4 {
		if L1Dist(p, q) != 1 {
			t.Errorf("4-neighbor %v at distance %d", q, L1Dist(p, q))
		}
	}
}

// Block3Bit maps the nine offsets of a 3×3 block one-to-one onto bits
// 0..8, row by row from the bottom-left cell, with the centre on bit 4.
func TestBlock3Bit(t *testing.T) {
	seen := Block3(0)
	i := 0
	for y := -1; y <= 1; y++ {
		for x := -1; x <= 1; x++ {
			b := Block3Bit(Pt(x, y))
			if b != 1<<i || seen&b != 0 {
				t.Fatalf("Block3Bit(%d, %d) = %#b, want bit %d", x, y, b, i)
			}
			seen |= b
			i++
		}
	}
	if Block3Bit(Zero) != 1<<4 {
		t.Fatalf("centre bit %#b", Block3Bit(Zero))
	}
}
