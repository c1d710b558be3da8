// Package codecpair enforces the snapshot codec's structural invariants in
// packages that consume internal/codec (or carry a //gather:snapshot-format
// marker):
//
//   - Symmetry: every encoder Append<X>/append<X> declared in the package
//     must have a decoding counterpart — Decode<X>, Restore<X>, NewRestored,
//     or Decode<ReceiverType> (case-insensitive prefixes) — so a writer
//     cannot ship bytes no reader understands. A deliberately asymmetric
//     encoder is disclaimed with //gather:oneway <reason>.
//   - Sticky errors: every function that constructs a codec.Reader must
//     either consult its Err() method or hand the reader to its caller by
//     returning it; silently dropping the sticky error turns truncated
//     input into garbage state. Escape: //gather:codec-ok <reason>.
//   - Versioning: a package carrying
//     //gather:snapshot-format version=<const> hash=<16 hex digits>
//     has its format fingerprint — an FNV-1a hash over the printed code
//     of all format-bearing declarations, comments left out — checked
//     against the recorded hash. Changing any encoder or decoder changes
//     the fingerprint (rewording a comment does not), and
//     the resulting diagnostic (which prints the new hash) forces the
//     author to restate the marker and, per its instructions, decide
//     whether <const> must be bumped.
package codecpair

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"hash/fnv"
	"sort"
	"strings"

	"gridgather/internal/analysis"
)

// Analyzer is the codecpair analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "codecpair",
	Doc:  "enforce Append/Decode symmetry, sticky-error checks, and snapshot-format fingerprints",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	path := pass.Pkg.Path()
	if path == "codec" || strings.HasSuffix(path, "/codec") {
		return nil, nil // the codec package itself defines the primitives
	}
	dirs := analysis.CollectDirectives(pass)
	marker, hasMarker := analysis.PackageDirective(pass, "snapshot-format")
	if !importsCodec(pass) && !hasMarker {
		return nil, nil
	}

	decls := collectFuncs(pass)
	checkPairs(pass, decls)
	checkReaders(pass, dirs, decls)
	if hasMarker {
		checkFingerprint(pass, marker, decls)
	}
	return nil, nil
}

func importsCodec(pass *analysis.Pass) bool {
	for _, imp := range pass.Pkg.Imports() {
		if imp.Path() == "codec" || strings.HasSuffix(imp.Path(), "/codec") {
			return true
		}
	}
	return false
}

// collectFuncs gathers the package's non-test function declarations in
// source order.
func collectFuncs(pass *analysis.Pass) []*ast.FuncDecl {
	var decls []*ast.FuncDecl
	for _, f := range pass.SourceFiles() {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				decls = append(decls, fn)
			}
		}
	}
	return decls
}

// checkPairs verifies every Append<X> encoder has a decoding counterpart.
func checkPairs(pass *analysis.Pass, decls []*ast.FuncDecl) {
	names := make(map[string]bool, len(decls))
	for _, fn := range decls {
		names[fn.Name.Name] = true
	}
	for _, fn := range decls {
		base, ok := encoderBase(fn.Name.Name)
		if !ok || pass.IsTestFile(fn.Pos()) || !returnsByteSlice(pass, fn) {
			continue
		}
		if _, oneway := analysis.FuncDirective(fn, "oneway"); oneway {
			continue
		}
		if hasCounterpart(names, base, receiverTypeName(fn)) {
			continue
		}
		pass.Reportf(fn.Name.Pos(),
			"encoder %s has no decoding counterpart (Decode%s, Restore%s, NewRestored, or a Decode<Type> constructor); mark deliberate asymmetry //gather:oneway <reason>",
			fn.Name.Name, base, base)
	}
}

// returnsByteSlice distinguishes codec encoders from ordinary append-style
// slice helpers: an encoder extends and returns a []byte buffer.
func returnsByteSlice(pass *analysis.Pass, fn *ast.FuncDecl) bool {
	obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func)
	if !ok {
		return false
	}
	results := obj.Type().(*types.Signature).Results()
	for i := 0; i < results.Len(); i++ {
		if s, ok := results.At(i).Type().Underlying().(*types.Slice); ok {
			if b, ok := s.Elem().Underlying().(*types.Basic); ok && b.Kind() == types.Byte {
				return true
			}
		}
	}
	return false
}

// encoderBase extracts X from Append<X>/append<X>; ok is false for names
// that are not encoders (including bare "Append"/"append").
func encoderBase(name string) (string, bool) {
	for _, prefix := range []string{"Append", "append"} {
		if rest, found := strings.CutPrefix(name, prefix); found && rest != "" {
			return rest, true
		}
	}
	return "", false
}

func hasCounterpart(names map[string]bool, base, recvType string) bool {
	candidates := []string{
		"Decode" + base, "decode" + base,
		"Restore" + base, "restore" + base,
	}
	if recvType != "" {
		// A method encoder may decode through a constructor: NewRestored
		// (fsync.Engine.AppendState) or Decode<Type> (world.Dense.AppendState
		// → DecodeDense). Plain-function encoders get no such credit — a
		// package-level NewRestored must not excuse unrelated orphans.
		candidates = append(candidates,
			"NewRestored",
			"Decode"+exported(recvType), "decode"+exported(recvType))
	}
	for _, c := range candidates {
		if names[c] {
			return true
		}
	}
	return false
}

// exported upper-cases the first byte so receiver type "grid" matches a
// DecodeGrid constructor (ASCII type names only, which holds repo-wide).
func exported(name string) string {
	if name == "" || name[0] < 'a' || name[0] > 'z' {
		return name
	}
	return string(name[0]-'a'+'A') + name[1:]
}

func receiverTypeName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// checkReaders verifies each function constructing a codec.Reader consults
// the sticky error or returns the reader for its caller to check.
func checkReaders(pass *analysis.Pass, dirs *analysis.Directives, decls []*ast.FuncDecl) {
	for _, fn := range decls {
		if fn.Body == nil || pass.IsTestFile(fn.Pos()) {
			continue
		}
		newReaderPos := token.NoPos
		checksErr := false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "NewReader":
				if isCodecPkgSelector(pass, sel) && newReaderPos == token.NoPos {
					newReaderPos = call.Pos()
				}
			case "Err":
				checksErr = true
			}
			return true
		})
		if newReaderPos == token.NoPos || checksErr || returnsReader(fn) {
			continue
		}
		if dirs.Escaped(newReaderPos, "codec-ok") {
			continue
		}
		pass.Reportf(newReaderPos,
			"codec.Reader constructed but its sticky Err() is never checked in %s; check Err() or return the reader", fn.Name.Name)
	}
}

func isCodecPkgSelector(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return false
	}
	p := pkgName.Imported().Path()
	return p == "codec" || strings.HasSuffix(p, "/codec")
}

// returnsReader reports whether fn's results include a *codec.Reader-ish
// type (selector ending in Reader), delegating the Err check to callers.
func returnsReader(fn *ast.FuncDecl) bool {
	if fn.Type.Results == nil {
		return false
	}
	for _, field := range fn.Type.Results.List {
		t := field.Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if sel, ok := t.(*ast.SelectorExpr); ok && sel.Sel.Name == "Reader" {
			return true
		}
	}
	return false
}

// checkFingerprint recomputes the package's snapshot-format hash and
// compares it to the marker.
func checkFingerprint(pass *analysis.Pass, marker analysis.Directive, decls []*ast.FuncDecl) {
	fields := parseKeyValues(marker.Args)
	versionConst, hash := fields["version"], fields["hash"]
	if versionConst == "" || len(hash) != 16 {
		pass.Reportf(marker.Pos, "malformed //gather:snapshot-format: need version=<const> hash=<16 hex digits>")
		return
	}
	if pass.Pkg.Scope().Lookup(versionConst) == nil {
		pass.Reportf(marker.Pos, "snapshot-format version constant %s is not declared in this package", versionConst)
		return
	}
	got := fingerprint(pass, versionConst, decls)
	if got != hash {
		pass.Reportf(marker.Pos,
			"snapshot format changed: fingerprint %s, marker records %s; if the byte layout changed, bump %s, then update the marker hash",
			got, hash, versionConst)
	}
}

func parseKeyValues(args string) map[string]string {
	out := make(map[string]string)
	for _, field := range strings.Fields(args) {
		if k, v, ok := strings.Cut(field, "="); ok {
			out[k] = v
		}
	}
	return out
}

// fingerprint hashes the printed form of every format-bearing declaration:
// encoders and decoders (append/decode/restore prefixes), Snapshot,
// NewRestored, and the version constant's declaration. Only code is
// hashed: each declaration is printed from a copy with its doc and line
// comments cleared, go/printer leaves out the comments inside a body (it
// has no file to take them from), and printing against an empty file set
// gives every node the canonical layout, so the blank line a removed
// comment leaves behind does not count either. Declarations are hashed in
// name order so moving code between files does not churn the fingerprint.
func fingerprint(pass *analysis.Pass, versionConst string, decls []*ast.FuncDecl) string {
	var parts []*printable
	for _, fn := range decls {
		if pass.IsTestFile(fn.Pos()) || !formatBearing(fn.Name.Name) {
			continue
		}
		code := *fn
		code.Doc = nil
		parts = append(parts, &printable{key: declKey(fn), node: &code})
	}
	if spec := findConstSpec(pass, versionConst); spec != nil {
		code := *spec
		code.Doc, code.Comment = nil, nil
		parts = append(parts, &printable{key: "const " + versionConst, node: &code})
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].key < parts[j].key })

	h := fnv.New64a()
	var buf bytes.Buffer
	noLines := token.NewFileSet()
	for _, p := range parts {
		buf.Reset()
		printer.Fprint(&buf, noLines, p.node)
		h.Write([]byte(p.key))
		h.Write([]byte{0})
		h.Write(buf.Bytes())
		h.Write([]byte{0})
	}
	const hexdigits = "0123456789abcdef"
	sum := h.Sum64()
	out := make([]byte, 16)
	for i := 15; i >= 0; i-- {
		out[i] = hexdigits[sum&0xf]
		sum >>= 4
	}
	return string(out)
}

type printable struct {
	key  string
	node ast.Node
}

func formatBearing(name string) bool {
	lower := strings.ToLower(name)
	for _, prefix := range []string{"append", "decode", "restore"} {
		if strings.HasPrefix(lower, prefix) {
			return true
		}
	}
	return name == "Snapshot" || name == "NewRestored"
}

// declKey disambiguates same-named methods on different receivers.
func declKey(fn *ast.FuncDecl) string {
	if recv := receiverTypeName(fn); recv != "" {
		return recv + "." + fn.Name.Name
	}
	return fn.Name.Name
}

func findConstSpec(pass *analysis.Pass, name string) *ast.ValueSpec {
	for _, f := range pass.SourceFiles() {
		for _, d := range f.Decls {
			gen, ok := d.(*ast.GenDecl)
			if !ok || gen.Tok != token.CONST {
				continue
			}
			for _, spec := range gen.Specs {
				vs := spec.(*ast.ValueSpec)
				for _, id := range vs.Names {
					if id.Name == name {
						return vs
					}
				}
			}
		}
	}
	return nil
}
