package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The //gather: directive vocabulary. Directives are magic comments (no
// space after //, like //go:noinline) read by the analyzers:
//
//	//gather:deterministic          package marker (doc comment): detlint active
//	//gather:nondet-ok <reason>     line escape for detlint
//	//gather:hotpath                func marker: hotalloc active for this func
//	//gather:alloc-ok <reason>      line escape for hotalloc
//	//gather:oneway <reason>        func marker: Append* with no decoder, on purpose
//	//gather:codec-ok <reason>      line escape for codecpair's reader-error rule
//	//gather:snapshot-format version=<ident> hash=<16 hex>
//	                                package marker: codecpair format fingerprint
//
// A line escape suppresses diagnostics on its own line, or — when the
// comment stands alone — on the next source line. Escapes and the reason-
// carrying markers require a non-empty reason; detlint validates the
// vocabulary itself (unknown //gather: names, missing reasons) everywhere.
const directivePrefix = "//gather:"

// knownDirectives maps each directive name to whether it requires a
// trailing argument (reason or key=value list).
var knownDirectives = map[string]bool{
	"deterministic":   false,
	"nondet-ok":       true,
	"hotpath":         false,
	"alloc-ok":        true,
	"oneway":          true,
	"codec-ok":        true,
	"snapshot-format": true,
}

// Directive is one parsed //gather: comment.
type Directive struct {
	Pos  token.Pos
	Name string // e.g. "nondet-ok"
	Args string // trimmed text after the name; "" if none
}

// ParseDirective parses one comment; ok is false for non-directive comments.
// Malformed directives (unknown name, missing required args) still parse —
// detlint reports them — with Known/NeedsArgs exposed via Lookup.
func ParseDirective(c *ast.Comment) (Directive, bool) {
	text, found := strings.CutPrefix(c.Text, directivePrefix)
	if !found {
		return Directive{}, false
	}
	name, args, _ := strings.Cut(text, " ")
	name = strings.TrimSpace(name)
	if name == "" {
		return Directive{}, false
	}
	return Directive{Pos: c.Pos(), Name: name, Args: strings.TrimSpace(args)}, true
}

// Known reports whether d names a defined directive, and whether that
// directive requires an argument.
func (d Directive) Known() (known, needsArgs bool) {
	needsArgs, known = knownDirectives[d.Name]
	return known, needsArgs
}

// Directives indexes every //gather: comment in a package for position and
// declaration lookups. Build one per pass with CollectDirectives.
type Directives struct {
	fset *token.FileSet
	all  []Directive
	// escape directives indexed by the source line they cover: the line
	// they appear on and, for standalone comment lines, the next line.
	byLine map[string]map[int][]Directive
}

// CollectDirectives scans the pass's non-test files.
func CollectDirectives(pass *Pass) *Directives {
	d := &Directives{fset: pass.Fset, byLine: make(map[string]map[int][]Directive)}
	for _, f := range pass.SourceFiles() {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				dir, ok := ParseDirective(c)
				if !ok {
					continue
				}
				d.all = append(d.all, dir)
				pos := pass.Fset.Position(c.Pos())
				lines := d.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]Directive)
					d.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], dir)
				if isOwnLine(pass.Fset, f, c) {
					lines[pos.Line+1] = append(lines[pos.Line+1], dir)
				}
			}
		}
	}
	return d
}

// isOwnLine reports whether comment c is the first token on its line, i.e.
// a standalone comment whose escape should cover the following line.
func isOwnLine(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	pos := fset.Position(c.Pos())
	// A trailing comment shares its line with code; the cheapest reliable
	// test is the column — standalone directive comments in this codebase
	// are never preceded by code at lower columns on the same line. Walk
	// the file's decls for any node ending on the comment's line.
	shares := false
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || shares {
			return false
		}
		if n.End() <= c.Pos() && fset.Position(n.End()).Line == pos.Line {
			switch n.(type) {
			case *ast.File, *ast.GenDecl, *ast.FuncDecl, *ast.BlockStmt:
				// Containers can end on any line; only leaf-ish nodes
				// indicate code sharing the line.
			default:
				shares = true
			}
		}
		return n.Pos() < c.Pos() // prune subtrees past the comment
	})
	return !shares
}

// All returns every directive collected, in file order.
func (d *Directives) All() []Directive { return d.all }

// Escaped reports whether a diagnostic at pos is suppressed by an escape
// directive with the given name (on the same line, or on a standalone
// comment line directly above). Escapes with empty Args do not suppress —
// detlint separately reports them as malformed, and an authorless escape
// must not silence the underlying finding.
func (d *Directives) Escaped(pos token.Pos, name string) bool {
	p := d.fset.Position(pos)
	for _, dir := range d.byLine[p.Filename][p.Line] {
		if dir.Name == name && dir.Args != "" {
			return true
		}
	}
	return false
}

// FuncDirective returns the named directive from fn's doc comment, if any.
func FuncDirective(fn *ast.FuncDecl, name string) (Directive, bool) {
	return groupDirective(fn.Doc, name)
}

// PackageDirective returns the named directive from any file's package doc
// comment or floating comment groups before the package clause.
func PackageDirective(pass *Pass, name string) (Directive, bool) {
	for _, f := range pass.SourceFiles() {
		if dir, ok := groupDirective(f.Doc, name); ok {
			return dir, ok
		}
		// Directives may sit in a detached comment block above the package
		// clause (separated by a blank line from the doc comment).
		for _, cg := range f.Comments {
			if cg.End() > f.Package {
				break
			}
			if dir, ok := groupDirective(cg, name); ok {
				return dir, ok
			}
		}
	}
	return Directive{}, false
}

func groupDirective(cg *ast.CommentGroup, name string) (Directive, bool) {
	if cg == nil {
		return Directive{}, false
	}
	for _, c := range cg.List {
		if dir, ok := ParseDirective(c); ok && dir.Name == name {
			return dir, ok
		}
	}
	return Directive{}, false
}
