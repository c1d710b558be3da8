package gridgather_test

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"gridgather/internal/exp"
)

// TestGoldenExperiments runs the recorded experiment suite and compares
// its output byte for byte with testdata/golden/exp_all.txt. Every number
// in it (rounds, merges, moves, runs, scaling exponents) follows from the
// engine's decisions, so a refactor that changes no decision leaves the
// file as it is. A change that does change a decision re-records it with
//
//	go run ./cmd/gatherbench -exp all > testdata/golden/exp_all.txt
//
// and says in CHANGES.md which decision changed and why.
func TestGoldenExperiments(t *testing.T) {
	want, err := os.ReadFile("testdata/golden/exp_all.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	exp.All(&got)
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			t.Fatalf("experiment output differs from the golden file at line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	t.Fatalf("experiment output has %d lines, the golden file %d", len(g), len(w))
}
