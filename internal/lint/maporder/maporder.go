// Package maporder enforces the determinism contract behind every
// bit-identity claim in this repository (golden-fingerprint parallel
// builds, transplant byte-equality, canonical codec): inside
// determinism-critical packages, Go's randomized map iteration order must
// never reach an output, a float accumulation, or a tie-break. The
// analyzer flags `for range` over a map value and ranging directly over
// the unordered maps.Keys/maps.Values/maps.All iterators. The fix is to
// sort the keys first; where iteration order provably cannot matter (e.g.
// the result is itself a set), annotate the loop with
//
//	//lint:ordered <why order cannot affect the output>
package maporder

import (
	"go/ast"
	"go/types"
	"strings"

	"pegasus/internal/lint/analysis"
	"pegasus/internal/lint/lintutil"
)

// Critical lists the determinism-critical package paths (each entry also
// covers its subpackages). A map range outside these packages is not
// flagged. Tests may append fixture paths.
var Critical = []string{
	"pegasus/internal/baselines",
	"pegasus/internal/core",
	"pegasus/internal/distributed",
	"pegasus/internal/persist",
	"pegasus/internal/partition",
	"pegasus/internal/graph",
	"pegasus/internal/ingest",
}

// Analyzer flags unordered map iteration in determinism-critical packages.
var Analyzer = &analysis.Analyzer{
	Name:      "maporder",
	Directive: "ordered",
	Doc: "flag unordered map iteration in determinism-critical packages\n\n" +
		"Ranging over a map (or over maps.Keys/Values/All) observes Go's\n" +
		"randomized iteration order; in " + "pegasus's fingerprinted build and\n" +
		"codec paths that randomness becomes nondeterministic output. Sort\n" +
		"the keys first, or annotate //lint:ordered with a justification.",
	// Golden fingerprints and byte-equality expectations are computed in
	// _test.go files too; an unordered range there makes the *expected*
	// value flap, which is just as nondeterministic as flapping output.
	IncludeTests: true,
	Run:          run,
}

func run(pass *analysis.Pass) (any, error) {
	// External test packages ("pkg_test") inherit pkg's criticality.
	if !lintutil.PackageMatches(strings.TrimSuffix(pass.Pkg.Path(), "_test"), Critical) {
		return nil, nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			x := ast.Unparen(rng.X)
			if t := pass.TypeOf(x); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					pass.Reportf(rng.For,
						"range over map is unordered in determinism-critical package %s; sort the keys first or annotate //lint:ordered",
						pass.Pkg.Path())
					return true
				}
			}
			if call, ok := x.(*ast.CallExpr); ok {
				if lintutil.IsPkgFunc(pass, call, "maps", "Keys", "Values", "All") {
					pass.Reportf(rng.For,
						"range over maps.%s is unordered; collect and sort (e.g. slices.Sorted) or annotate //lint:ordered",
						lintutil.CalleeFunc(pass, call).Name())
				}
			}
			return true
		})
	}
	return nil, nil
}
