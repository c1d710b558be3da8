package grid

import "testing"

func TestFramesAreDistinct(t *testing.T) {
	probe := []Point{Pt(1, 0), Pt(0, 1), Pt(2, 3)}
	seen := map[[3]Point]int{}
	for i, f := range Frames {
		var key [3]Point
		for j, p := range probe {
			key[j] = f.Apply(p)
		}
		if prev, ok := seen[key]; ok {
			t.Errorf("frames %d and %d coincide", prev, i)
		}
		seen[key] = i
	}
}

func TestFramesPreserveNorms(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(1, 2), Pt(-3, 5), Pt(7, -7)}
	for i, f := range Frames {
		for _, p := range pts {
			q := f.Apply(p)
			if q.L1() != p.L1() || q.Linf() != p.Linf() {
				t.Errorf("frame %d does not preserve norms: %v -> %v", i, p, q)
			}
		}
	}
}

func TestFramesAreLinear(t *testing.T) {
	a, b := Pt(2, -1), Pt(-4, 3)
	for i, f := range Frames {
		if f.Apply(a.Add(b)) != f.Apply(a).Add(f.Apply(b)) {
			t.Errorf("frame %d not additive", i)
		}
		if f.Apply(a.Scale(3)) != f.Apply(a).Scale(3) {
			t.Errorf("frame %d not homogeneous", i)
		}
	}
}

func TestIdentityFrame(t *testing.T) {
	id := Frames[0]
	for _, p := range []Point{Pt(0, 0), Pt(5, -2)} {
		if id.Apply(p) != p {
			t.Errorf("identity moved %v", p)
		}
	}
}

// TestRotationDeterminants checks the documented layout of Frames: four
// rotations (determinant +1) followed by four reflections (-1).
func TestRotationDeterminants(t *testing.T) {
	for i, f := range Frames {
		want := 1
		if i >= 4 {
			want = -1
		}
		if det := f.Ex.X*f.Ey.Y - f.Ex.Y*f.Ey.X; det != want {
			t.Errorf("frame %d has det %d, want %d", i, det, want)
		}
	}
}

func TestGroupClosure(t *testing.T) {
	// D4 is closed under composition: every composition equals one of the
	// eight listed frames.
	for _, f := range Frames {
		for _, g := range Frames {
			c := Frame{Ex: f.Apply(g.Ex), Ey: f.Apply(g.Ey)}
			found := false
			for _, h := range Frames {
				if c == h {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("composition %v not in Frames", c)
			}
		}
	}
}
