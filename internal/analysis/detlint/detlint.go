// Package detlint enforces the engine's determinism contract: in packages
// opted in with a //gather:deterministic package directive, it forbids the
// constructs whose observable order or value varies between runs — ranging
// over maps, reading the wall clock, math/rand (the seeded splitmix64
// stream in internal/splitmix is the only sanctioned RNG), maps.Keys/Values,
// and goroutine spawns. A finding is suppressed by
// a //gather:nondet-ok <reason> escape on the same line or the line above;
// the reason is mandatory (an escape without one does not suppress).
//
// detlint also validates the //gather: directive vocabulary itself, in
// every package: unknown directive names and reason-less escapes are
// diagnosed so a typo like //gather:nodet-ok cannot silently disable a
// check.
package detlint

import (
	"go/ast"
	"go/token"
	"go/types"

	"gridgather/internal/analysis"
)

// Analyzer is the detlint analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "detlint",
	Doc:  "forbid nondeterministic constructs in //gather:deterministic packages",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	dirs := analysis.CollectDirectives(pass)
	checkDirectives(pass, dirs)
	if _, ok := analysis.PackageDirective(pass, "deterministic"); !ok {
		return nil, nil
	}
	for _, f := range pass.SourceFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				checkMapRange(pass, dirs, n)
			case *ast.GoStmt:
				report(pass, dirs, n.Pos(), "goroutine spawn in deterministic package (run the work on the calling goroutine)")
			case *ast.SelectorExpr:
				checkSelector(pass, dirs, n)
			}
			return true
		})
	}
	return nil, nil
}

// checkDirectives validates the //gather: vocabulary in every package.
func checkDirectives(pass *analysis.Pass, dirs *analysis.Directives) {
	for _, d := range dirs.All() {
		known, needsArgs := d.Known()
		switch {
		case !known:
			pass.Reportf(d.Pos, "unknown directive //gather:%s", d.Name)
		case needsArgs && d.Args == "":
			pass.Reportf(d.Pos, "//gather:%s requires a reason", d.Name)
		}
	}
}

func checkMapRange(pass *analysis.Pass, dirs *analysis.Directives, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
		report(pass, dirs, rng.Pos(), "map iteration order is nondeterministic; iterate a sorted or insertion-ordered slice instead")
	}
}

// checkSelector flags uses of wall-clock time, unseeded RNG, and map-order
// iterators, resolved through the type info so local identifiers named
// "rand" or "time" are not misflagged.
func checkSelector(pass *analysis.Pass, dirs *analysis.Directives, sel *ast.SelectorExpr) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return
	}
	switch path := pkgName.Imported().Path(); path {
	case "time":
		if sel.Sel.Name == "Now" || sel.Sel.Name == "Since" || sel.Sel.Name == "Until" {
			report(pass, dirs, sel.Pos(), "wall-clock reads are nondeterministic; thread logical time through the round counter")
		}
	case "math/rand", "math/rand/v2":
		report(pass, dirs, sel.Pos(), "math/rand is unseeded or globally shared; use an internal/splitmix stream")
	case "maps":
		if sel.Sel.Name == "Keys" || sel.Sel.Name == "Values" {
			report(pass, dirs, sel.Pos(), "maps.%s yields map order; iterate a sorted or insertion-ordered slice instead", sel.Sel.Name)
		}
	}
}

func report(pass *analysis.Pass, dirs *analysis.Directives, pos token.Pos, format string, args ...any) {
	if pass.IsTestFile(pos) || dirs.Escaped(pos, "nondet-ok") {
		return
	}
	pass.Reportf(pos, format, args...)
}
