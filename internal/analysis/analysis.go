// Package analysis is the repo's static-analysis substrate: a minimal,
// dependency-free mirror of the golang.org/x/tools/go/analysis API plus the
// //gather: directive vocabulary the analyzers share. The engine's
// correctness story rests on invariants — no nondeterministic iteration in
// outcome-reaching code, no allocations on the round hot path, symmetric
// snapshot codec pairs — that the differential suites check dynamically
// and late; the analyzers in the subpackages (detlint, hotalloc,
// codecpair) check them at compile time, over every function, on every
// build.
//
// The API shape deliberately matches x/tools so the suite could migrate to
// the real framework wholesale if the dependency ever lands in the build
// environment: an Analyzer is a named Run function over a Pass holding the
// type-checked package, and diagnostics are (position, message) pairs. The
// drivers are internal/analysis/unit (the `go vet -vettool` protocol) and
// internal/analysis/analyzertest (the `// want`-comment test harness).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one static check: a name for diagnostics and reports, a doc
// string, and the Run function applied once per type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and the multichecker's
	// usage output. Lower-case, no spaces.
	Name string
	// Doc is the analyzer's documentation: first line a summary, the rest
	// the full invariant description.
	Doc string
	// Run applies the check to one package and reports findings through
	// pass.Report. The returned value is unused (it exists to keep the
	// signature migration-compatible with x/tools).
	Run func(pass *Pass) (any, error)
}

// Pass holds everything Run needs about one type-checked package.
type Pass struct {
	// Analyzer is the analyzer this pass executes.
	Analyzer *Analyzer
	// Fset maps token positions for all of Files.
	Fset *token.FileSet
	// Files are the package's parsed source files, with comments.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's expression and identifier facts.
	TypesInfo *types.Info
	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
}

// Diagnostic is one finding at one source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// IsTestFile reports whether the file containing pos is a _test.go file.
// The engine invariants bind production code; tests range over maps, spawn
// goroutines and format freely, so every analyzer skips test files.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// SourceFiles yields the package's non-test files.
func (p *Pass) SourceFiles() []*ast.File {
	out := make([]*ast.File, 0, len(p.Files))
	for _, f := range p.Files {
		if !p.IsTestFile(f.Pos()) {
			out = append(out, f)
		}
	}
	return out
}

// Run executes the analyzers over one type-checked package and returns
// their diagnostics in source order (file, then offset, then analyzer
// registration order for ties). Shared by the vet driver and the test
// harness so both see identical findings.
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %v", a.Name, err)
		}
	}
	stableSortDiags(fset, diags)
	return diags, nil
}

// stableSortDiags orders diagnostics by position (insertion order breaks
// ties, keeping analyzer registration order deterministic).
func stableSortDiags(fset *token.FileSet, ds []Diagnostic) {
	// Insertion sort: diagnostic counts are small and the slice is nearly
	// sorted already (analyzers walk files in order).
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && diagLess(fset, ds[j], ds[j-1]); j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}

func diagLess(fset *token.FileSet, a, b Diagnostic) bool {
	pa, pb := fset.Position(a.Pos), fset.Position(b.Pos)
	if pa.Filename != pb.Filename {
		return pa.Filename < pb.Filename
	}
	return pa.Offset < pb.Offset
}
