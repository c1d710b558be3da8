// gatherlint is the repo's static-analysis multichecker: detlint, hotalloc
// and codecpair over every package, wired into `go vet`.
//
// Usage:
//
//	go vet -vettool=$(which gatherlint) ./...   # the normal CI invocation
//	gatherlint ./...                            # standalone: re-execs go vet
//	gatherlint path/to/unit.cfg                 # one vet unit (cmd/go calls this)
//
// As a vettool, cmd/go drives gatherlint through the unitchecker protocol
// implemented by internal/analysis/unit: a -flags probe, a -V=full version
// probe whose build ID keys vet's action cache, then one JSON config per
// package. Standalone mode is a convenience that re-executes
// `go vet -vettool=<self>` so developers get identical behavior and
// caching either way.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"

	"gridgather/internal/analysis/suite"
	"gridgather/internal/analysis/unit"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// cmd/go's probes come first and must not reach flag parsing errors.
	if len(args) == 1 {
		switch {
		case args[0] == "-flags":
			unit.PrintFlags(os.Stdout)
			return 0
		case strings.HasPrefix(args[0], "-V"):
			unit.PrintVersion(os.Stdout, "gatherlint", buildID())
			return 0
		}
	}

	fs := flag.NewFlagSet("gatherlint", flag.ContinueOnError)
	fs.Usage = usage
	if err := fs.Parse(args); err != nil {
		return 1
	}
	rest := fs.Args()
	if len(rest) == 0 {
		usage()
		return 1
	}

	// A single existing *.cfg argument is a vet unit from cmd/go.
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		n, err := unit.Run(rest[0], suite.Analyzers, os.Stderr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gatherlint: %v\n", err)
			return 1
		}
		if n > 0 {
			return 2
		}
		return 0
	}

	// Standalone: hand the package patterns to go vet with ourselves as
	// the tool, inheriting its loading, caching, and diagnostics plumbing.
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "gatherlint: %v\n", err)
		return 1
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + self}, rest...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintf(os.Stderr, "gatherlint: %v\n", err)
		return 1
	}
	return 0
}

// buildID hashes the executable so vet's action cache invalidates when the
// tool changes. Probes must still answer if the binary is unreadable (e.g.
// deleted underfoot); a constant ID only costs cache hits.
func buildID() string {
	self, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(self)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

func usage() {
	fmt.Fprint(os.Stderr, `gatherlint: gridgather's static-analysis suite

usage:
  gatherlint ./...                       run the suite over packages
  go vet -vettool=$(which gatherlint) ./...   equivalent, explicit form

analyzers: detlint, hotalloc, codecpair (see internal/analysis).
`)
}
