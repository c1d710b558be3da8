package splitmix

import "testing"

// The stream is deterministic per seed and uniform enough for activation
// and fault coin flips.
func TestStream(t *testing.T) {
	a, b := Stream(42), Stream(42)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed streams diverged")
		}
	}
	c := Stream(43)
	if a.Next() == c.Next() {
		t.Error("different seeds produced the same draw")
	}
	heads, n := 0, 10000
	r := Stream(7)
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("float64 out of range: %v", v)
		}
		if v < 0.5 {
			heads++
		}
	}
	if heads < n*45/100 || heads > n*55/100 {
		t.Errorf("coin heavily biased: %d/%d below 0.5", heads, n)
	}
}
