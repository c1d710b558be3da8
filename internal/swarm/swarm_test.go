package swarm

import (
	"strings"
	"testing"

	"gridgather/internal/grid"
)

// FromASCII builds a swarm from an ASCII picture: '#' (or 'X') marks a
// robot, anything else is free. The top line of the picture is the highest
// y. The bottom-left character maps to (0, 0).
func FromASCII(pic string) *Swarm {
	lines := strings.Split(strings.Trim(pic, "\n"), "\n")
	s := New()
	h := len(lines)
	for row, line := range lines {
		y := h - 1 - row
		for x, ch := range line {
			if ch == '#' || ch == 'X' {
				s.Add(grid.Pt(x, y))
			}
		}
	}
	return s
}

func line(n int) *Swarm {
	s := New()
	for i := 0; i < n; i++ {
		s.Add(grid.Pt(i, 0))
	}
	return s
}

func TestNewAndBasicOps(t *testing.T) {
	s := New(grid.Pt(0, 0), grid.Pt(1, 0), grid.Pt(0, 0))
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2 (duplicates collapse)", s.Len())
	}
	s.Add(grid.Pt(5, 5))
	if !s.Has(grid.Pt(5, 5)) {
		t.Error("Add/Has failed")
	}
	s.Remove(grid.Pt(5, 5))
	if s.Has(grid.Pt(5, 5)) {
		t.Error("Remove failed")
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := line(3)
	c := s.Clone()
	c.Remove(grid.Pt(0, 0))
	if !s.Has(grid.Pt(0, 0)) {
		t.Error("Clone shares storage")
	}
	if !s.Clone().Equal(s) {
		t.Error("Clone not equal")
	}
}

func TestCellsDeterministicOrder(t *testing.T) {
	s := New(grid.Pt(2, 1), grid.Pt(0, 0), grid.Pt(1, 1), grid.Pt(-1, 0))
	got := s.Cells()
	want := []grid.Point{{X: -1, Y: 0}, {X: 0, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 1}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Cells order = %v", got)
		}
	}
}

func TestConnected(t *testing.T) {
	if !New().Connected() {
		t.Error("empty swarm should be connected")
	}
	if !New(grid.Pt(0, 0)).Connected() {
		t.Error("singleton should be connected")
	}
	if !line(10).Connected() {
		t.Error("line should be connected")
	}
	// Diagonal adjacency is NOT connectivity in the paper's model.
	diag := New(grid.Pt(0, 0), grid.Pt(1, 1))
	if diag.Connected() {
		t.Error("diagonal pair must not count as connected")
	}
	gap := New(grid.Pt(0, 0), grid.Pt(2, 0))
	if gap.Connected() {
		t.Error("gapped pair must not be connected")
	}
}

func TestBoundsAndDiameter(t *testing.T) {
	s := FromASCII(`
###
#..
#..
`)
	b := s.Bounds()
	if b.Width() != 3 || b.Height() != 3 {
		t.Errorf("bounds = %v", b)
	}
	if got := s.Diameter(); got != 2 {
		t.Errorf("diameter = %d, want 2", got)
	}
	if New().Diameter() != 0 {
		t.Error("empty diameter should be 0")
	}
}

func TestGathered(t *testing.T) {
	if !New(grid.Pt(0, 0)).Gathered() {
		t.Error("singleton is gathered")
	}
	if !New(grid.Pt(0, 0), grid.Pt(1, 0), grid.Pt(0, 1), grid.Pt(1, 1)).Gathered() {
		t.Error("2x2 square is gathered")
	}
	if line(3).Gathered() {
		t.Error("1x3 line is not gathered")
	}
	if New().Gathered() {
		t.Error("empty swarm is not gathered")
	}
}

func TestDegree(t *testing.T) {
	s := FromASCII(`
.#.
###
.#.
`)
	if got := s.Degree(grid.Pt(1, 1)); got != 4 {
		t.Errorf("center degree = %d", got)
	}
	if got := s.Degree(grid.Pt(1, 2)); got != 1 {
		t.Errorf("tip degree = %d", got)
	}
}

func TestStringRendering(t *testing.T) {
	s := New(grid.Pt(0, 0), grid.Pt(1, 1))
	got := s.String()
	want := ".#\n#.\n"
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if New().String() != "(empty swarm)" {
		t.Error("empty rendering wrong")
	}
}

func TestFromASCIIRoundTrip(t *testing.T) {
	pic := "##.\n.##\n##.\n"
	s := FromASCII(pic)
	if s.String() != pic {
		t.Errorf("round trip: got\n%s\nwant\n%s", s.String(), pic)
	}
}

func TestValidatePanicsOnDisconnected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(grid.Pt(0, 0), grid.Pt(3, 3)).Validate()
}
