package codecpair_test

import (
	"testing"

	"gridgather/internal/analysis/analyzertest"
	"gridgather/internal/analysis/codecpair"
)

// TestPairsAndReaders covers encoder symmetry (all counterpart spellings,
// the []byte-return filter, the oneway disclaimer) and the sticky-error
// rule (check, return, escape).
func TestPairsAndReaders(t *testing.T) {
	analyzertest.Run(t, "testdata/src", "pairs", codecpair.Analyzer)
}

// TestFingerprintFresh expects no diagnostics: the marker hash matches the
// fixture's declarations, and the method encoder pairs via DecodeGrid.
func TestFingerprintFresh(t *testing.T) {
	analyzertest.Run(t, "testdata/src", "fmtver", codecpair.Analyzer)
}

// TestFingerprintIgnoresComments expects no diagnostics: fmtdoc is fmtver
// with doc, line and body comments added, and its marker records fmtver's
// hash.
func TestFingerprintIgnoresComments(t *testing.T) {
	analyzertest.Run(t, "testdata/src", "fmtdoc", codecpair.Analyzer)
}

// TestFingerprintStale expects the format-changed diagnostic.
func TestFingerprintStale(t *testing.T) {
	analyzertest.Run(t, "testdata/src", "fmtstale", codecpair.Analyzer)
}

// TestFingerprintMalformed expects the missing-constant diagnostic.
func TestFingerprintMalformed(t *testing.T) {
	analyzertest.Run(t, "testdata/src", "fmtbad", codecpair.Analyzer)
}
