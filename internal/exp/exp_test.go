package exp

import (
	"strings"
	"testing"
)

func TestE1Small(t *testing.T) {
	var b strings.Builder
	E1GridScaling(&b, []int{24, 48})
	out := b.String()
	if !strings.Contains(out, "line") || !strings.Contains(out, "exponent") {
		t.Errorf("E1 output:\n%s", out)
	}
	if strings.Contains(out, "ERR") {
		t.Errorf("E1 contains errors:\n%s", out)
	}
}

func TestE2Small(t *testing.T) {
	var b strings.Builder
	E2PlaneComparison(&b, []int{12, 24})
	out := b.String()
	hasRows(t, out,
		"n grid line grid ring plane circle plane/grid-line",
		"12 5 1 2 0.40",
		"24 11 3 6 0.55",
		"growth exponents: grid line 1.14 (linear, meets the diameter bound),",
		"plane circle 1.58 (quadratic); grid ring 1.58 — inflated by a negative")
}

// hasRows fails unless every want line appears in out as a line, compared
// with runs of blanks collapsed (table columns are space-padded).
func hasRows(t *testing.T, out string, want ...string) {
	t.Helper()
	lines := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		lines[strings.Join(strings.Fields(line), " ")] = true
	}
	for _, w := range want {
		if !lines[w] {
			t.Errorf("missing row %q in:\n%s", w, out)
		}
	}
}

func TestE1bSmall(t *testing.T) {
	var b strings.Builder
	E1bHollowDetail(&b, []int{15, 21})
	hasRows(t, b.String(), "w n rounds Δrounds/Δw", "15 56 7 -", "21 80 11 0.7")
}

func TestE3Small(t *testing.T) {
	var b strings.Builder
	E3AsyncBaseline(&b, []int{40})
	if strings.Contains(b.String(), "ERR") {
		t.Errorf("E3 contains errors:\n%s", b.String())
	}
}

func TestE15Small(t *testing.T) {
	var b strings.Builder
	E15Pipelining(&b, 30)
	hasRows(t, b.String(),
		"n rounds runs started max concurrent runners rounds with merges",
		"116 120 48 8 14")
}

func TestE18Small(t *testing.T) {
	var b strings.Builder
	E18Ablation(&b, 60)
	out := b.String()
	if strings.Contains(out, "NO") {
		t.Errorf("ablation config failed to gather:\n%s", out)
	}
}

func TestE20Small(t *testing.T) {
	var b strings.Builder
	E20LowerBound(&b, []int{30, 60})
	hasRows(t, b.String(),
		"n diameter lower bound measured rounds",
		"30 29 14 14",
		"60 59 29 29")
}

func TestE21Small(t *testing.T) {
	var b strings.Builder
	E21Movements(&b, []int{40})
	out := b.String()
	if !strings.Contains(out, "moves/robot") || strings.Contains(out, "ERR") {
		t.Errorf("E21 output:\n%s", out)
	}
}
