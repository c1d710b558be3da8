// Package fmtdoc holds fmtver's format-bearing declarations with comments
// added: doc comments on every declaration, a line comment on the version
// constant, and a comment line and a blank line inside a body. The marker
// records fmtver's hash, so no diagnostics are expected: the fingerprint
// hashes code, not comments.
//
//gather:snapshot-format version=fmtVersion hash=875c7d2bc5547c38
package fmtdoc

import "codec"

// fmtVersion is the layout version.
const fmtVersion = 1 // bumped with every layout change

type grid struct{ n uint64 }

// AppendState encodes the grid after the layout version.
func (g *grid) AppendState(b []byte) []byte {
	b = codec.AppendUvarint(b, fmtVersion)
	// The count follows the version.

	return codec.AppendUvarint(b, g.n)
}

// DecodeGrid decodes AppendState's bytes.
func DecodeGrid(b []byte) (*grid, error) {
	r := codec.NewReader(b)
	_ = r.Uvarint()
	g := &grid{n: r.Uvarint()}
	return g, r.Err()
}
