// Command elasticvet runs the repo's determinism-invariant analyzers
// (internal/lint) over Go packages — no Makefile, no action, just the
// toolchain:
//
//	go run ./cmd/elasticvet ./...
//
// Arguments are package patterns resolved in the current directory (default
// ./...); findings print as file:line:col: analyzer: message and the exit
// status is 1 when anything is flagged, 2 when the packages cannot be loaded.
package main

import (
	"fmt"
	"os"

	"elastichpc/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run loads the patterns from source, prints every finding and returns the
// exit code.
func run(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.LoadPackages(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "elasticvet:", err)
		return 2
	}
	found := 0
	for _, pkg := range pkgs {
		for _, d := range lint.Run(pkg, lint.Suite()) {
			fmt.Println(d)
			found++
		}
	}
	if found > 0 {
		fmt.Fprintf(os.Stderr, "elasticvet: %d finding(s)\n", found)
		return 1
	}
	return 0
}
