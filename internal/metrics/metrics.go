// Package metrics provides the measurement tooling of the experiment
// harness: scaling series, least-squares fits (linear and power-law) used
// to estimate round-complexity exponents, and plain-text table rendering
// for the regenerated experiment outputs.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Series is a sequence of (x, y) measurements, e.g. swarm size vs rounds.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Append adds one measurement.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of measurements.
func (s *Series) Len() int { return len(s.X) }

// LinearFit fits y = a·x + b by least squares and returns a, b and the
// coefficient of determination R².
func LinearFit(x, y []float64) (a, b, r2 float64) {
	n := float64(len(x))
	if len(x) != len(y) || len(x) < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	var sx, sy, sxx, sxy, syy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
		syy += y[i] * y[i]
	}
	den := n*sxx - sx*sx
	if math.Abs(den) < 1e-12 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	a = (n*sxy - sx*sy) / den
	b = (sy - a*sx) / n
	// R² = 1 - SS_res/SS_tot.
	meanY := sy / n
	var ssRes, ssTot float64
	for i := range x {
		pred := a*x[i] + b
		ssRes += (y[i] - pred) * (y[i] - pred)
		ssTot += (y[i] - meanY) * (y[i] - meanY)
	}
	if ssTot < 1e-12 {
		return a, b, 1
	}
	return a, b, 1 - ssRes/ssTot
}

// PowerFit fits y = c·x^e via a linear fit in log-log space and returns the
// exponent e, the coefficient c and R² of the log-log fit. It is the tool
// the experiments use to distinguish O(n) (e ≈ 1) from O(n²) (e ≈ 2)
// round-complexity growth. Points with non-positive coordinates are
// skipped.
func PowerFit(x, y []float64) (e, c, r2 float64) {
	var lx, ly []float64
	for i := range x {
		if x[i] > 0 && y[i] > 0 {
			lx = append(lx, math.Log(x[i]))
			ly = append(ly, math.Log(y[i]))
		}
	}
	a, b, r := LinearFit(lx, ly)
	return a, math.Exp(b), r
}

// Exponent is shorthand for the PowerFit exponent of a series.
func (s *Series) Exponent() float64 {
	e, _, _ := PowerFit(s.X, s.Y)
	return e
}

// Table renders rows of columns as an aligned plain-text table with a
// header row, in the style of the experiment tables `gatherbench -exp`
// prints.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of formatted cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddRowf appends a row applying fmt.Sprint to each value.
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table.
func (t *Table) String() string {
	cols := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	measure(t.Header)
	for _, r := range t.Rows {
		measure(r)
	}
	var b strings.Builder
	writeRow := func(row []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(row) {
				c = row[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of the sample using
// linear interpolation between closest ranks, the method the sweep
// aggregates use for their p50/p90/p99 columns. It returns NaN for an empty
// sample. The input is not modified. Callers needing several percentiles of
// one sample should sort once and use PercentileSorted.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p)
}

// PercentileSorted is Percentile for an already ascending-sorted sample,
// avoiding the per-call copy and sort.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary holds simple descriptive statistics.
type Summary struct {
	N         int
	Min, Max  float64
	Mean, Std float64
}

// Summarize computes descriptive statistics of a sample.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	sum := 0.0
	for _, v := range xs {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		sum += v
	}
	s.Mean = sum / float64(s.N)
	var ss float64
	for _, v := range xs {
		ss += (v - s.Mean) * (v - s.Mean)
	}
	if s.N > 1 {
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}
