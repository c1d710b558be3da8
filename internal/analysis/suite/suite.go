// Package suite registers the gatherlint analyzers in their canonical
// order. cmd/gatherlint and the test drivers both consume this list so a
// new analyzer lands everywhere by being appended here.
package suite

import (
	"gridgather/internal/analysis"
	"gridgather/internal/analysis/codecpair"
	"gridgather/internal/analysis/detlint"
	"gridgather/internal/analysis/hotalloc"
)

// Analyzers is the full gatherlint suite, in diagnostic tie-break order.
var Analyzers = []*analysis.Analyzer{
	detlint.Analyzer,
	hotalloc.Analyzer,
	codecpair.Analyzer,
}
