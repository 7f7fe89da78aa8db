// Command pegasus-lint mechanically enforces the repository's determinism,
// context-propagation, concurrency, typed-error, goroutine-accounting,
// lock-order, hot-path-allocation, and error-flow contracts (DESIGN.md,
// "Enforced invariants") with nine analyzers: atomicmix, ctxflow, goleak,
// hotalloc, lockorder, maporder, nilness, poolhold, typederr. Run
// `pegasus-lint -list` for one-line descriptions.
//
// Usage:
//
//	pegasus-lint [-json] [-list] [packages]
//
// It loads the packages (default ./...) with one `go list -export -deps
// -test` run, test variants included so _test.go files are covered where
// an analyzer opts in, and checks them in one pass for two kinds of
// finding: invariant violations no //lint: comment suppresses, and stale
// or malformed //lint: comments (analyzer "suppressions") — ones that
// suppress nothing, name no analyzer's directive, or give no
// justification.
//
//	pegasus-lint ./...
//	pegasus-lint -json ./internal/core ./internal/server
//
// Flags:
//
//	-json  print the result to stdout as one JSON object (below)
//	-list  list the analyzers with their directives and exit
//
// Exit codes:
//
//	0  no findings
//	1  usage, load, or internal error
//	2  findings were reported
//
// The -json output is one object:
//
//	{
//	  "findings":   [{"Analyzer": "maporder", "Pos": {...}, "Message": "..."}, ...],
//	  "suppressed": {"maporder": 3, "goleak": 1}
//	}
//
// where findings lists the invariant violations sorted by position, then
// the stale or malformed //lint: comments sorted by position, and
// suppressed counts the diagnostics silenced per analyzer by //lint:
// comments (absent analyzers suppressed nothing).
//
// Suppression: a `//lint:<directive> <justification>` comment on the
// flagged line or the line above silences the diagnostic; the justification
// is mandatory. Directives: ordered (maporder), atomicmix, ctxflow, goleak,
// hotalloc, lockorder, nilness, poolhold, typederr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"pegasus/internal/lint"
	"pegasus/internal/lint/load"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("pegasus-lint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit results as JSON")
	list := fs.Bool("list", false, "list the analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *list {
		return printList()
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	return check(patterns, *jsonOut)
}

// printList enumerates the suite: name, suppression directive, and the
// first line of each analyzer's doc.
func printList() int {
	for _, a := range lint.All() {
		summary, _, _ := strings.Cut(a.Doc, "\n")
		fmt.Printf("%-10s //lint:%-10s %s\n", a.Name, a.DirectiveName(), summary)
	}
	return 0
}

// jsonResult is the documented -json output shape (see the package doc).
type jsonResult struct {
	Findings   []lint.Finding `json:"findings"`
	Suppressed map[string]int `json:"suppressed"`
}

// check loads the packages (test variants included), runs the suite once,
// and reports its invariant violations followed by its stale or malformed
// suppressions.
func check(patterns []string, jsonOut bool) int {
	pkgs, err := load.LoadConfig(load.Config{}, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pegasus-lint: %v\n", err)
		return 1
	}
	analyzers := lint.All()
	res, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pegasus-lint: %v\n", err)
		return 1
	}
	violations := len(res.Findings)
	findings := append(res.Findings, res.UnusedSuppressions(pkgs, analyzers)...)
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonResult{Findings: findings, Suppressed: res.Suppressed}); err != nil {
			fmt.Fprintf(os.Stderr, "pegasus-lint: %v\n", err)
			return 1
		}
	} else {
		for _, f := range findings {
			fmt.Fprintf(os.Stderr, "%s\n", f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "pegasus-lint: %d invariant violation(s), %d stale or malformed suppression(s)\n",
			violations, len(findings)-violations)
		return 2
	}
	return 0
}
