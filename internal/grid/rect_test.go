package grid

import "testing"

func TestRectDimensions(t *testing.T) {
	r := Rect{MinX: 0, MinY: 0, MaxX: 2, MaxY: 1}
	if r.Width() != 3 || r.Height() != 2 {
		t.Errorf("dims = %d x %d", r.Width(), r.Height())
	}
	if EmptyRect.Width() != 0 || EmptyRect.Height() != 0 {
		t.Error("empty rect has nonzero dims")
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2}
	if !r.Contains(Pt(0, 0)) || !r.Contains(Pt(2, 2)) || !r.Contains(Pt(1, 1)) {
		t.Error("Contains false negative")
	}
	if r.Contains(Pt(3, 0)) || r.Contains(Pt(0, -1)) {
		t.Error("Contains false positive")
	}
}

func TestRectInclude(t *testing.T) {
	r := EmptyRect.Include(Pt(5, 5))
	if r.Width() != 1 || r.Height() != 1 || !r.Contains(Pt(5, 5)) {
		t.Errorf("Include into empty = %v", r)
	}
	r = r.Include(Pt(3, 7))
	if !r.Contains(Pt(3, 7)) || !r.Contains(Pt(5, 5)) || r.Width() != 3 || r.Height() != 3 {
		t.Errorf("Include = %v", r)
	}
}

func TestFitsIn2x2(t *testing.T) {
	cases := []struct {
		r    Rect
		want bool
	}{
		{Rect{0, 0, 0, 0}, true},
		{Rect{0, 0, 1, 1}, true},
		{Rect{0, 0, 1, 0}, true},
		{Rect{0, 0, 2, 1}, false},
		{Rect{0, 0, 0, 2}, false},
		{EmptyRect, false},
	}
	for _, c := range cases {
		if got := c.r.FitsIn2x2(); got != c.want {
			t.Errorf("FitsIn2x2(%v) = %v, want %v", c.r, got, c.want)
		}
	}
}
