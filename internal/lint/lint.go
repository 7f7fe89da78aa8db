// Package lint assembles the pegasus-lint analyzer suite: mechanical
// enforcement of the determinism, context-propagation, concurrency,
// typed-error, goroutine-accounting, lock-order, hot-path-allocation, and
// error-flow contracts this repository's speed claims depend on (see
// DESIGN.md, "Enforced invariants"). The analyzers are built on the
// stdlib-only go/analysis mirror in internal/lint/analysis — the simple
// ones walk the AST directly, the flow-sensitive ones (goleak, lockorder,
// nilness) solve dataflow problems over internal/lint/cfg graphs with the
// internal/lint/dataflow worklist solver — and run through one driver,
// cmd/pegasus-lint (`pegasus-lint ./...`), which reports invariant
// violations and stale suppressions from a single load and Run.
//
// # Adding an analyzer
//
// An analyzer is a package under internal/lint exporting a
// *analysis.Analyzer whose Run inspects one type-checked package via
// *analysis.Pass and calls pass.Reportf for each violation. To land one:
//
//  1. Pick a Name (and, if the //lint: suppression token should differ,
//     a Directive). `pegasus-lint -list` must stay collision-free — the
//     driver test fails on duplicate directives.
//  2. Make every diagnostic actionable: say what was found, why it breaks
//     the contract, and what to do instead — the message is the only
//     documentation most readers will see.
//  3. Write fixtures first: a failing package under
//     internal/lint/testdata/src/<name> with `// want` comments on each
//     expected diagnostic, and passing shapes in the same file proving
//     the analyzer stays quiet on correct code. Drive both through
//     analysistest.Run; expectations are matched bidirectionally, so a
//     missing or extra diagnostic fails either way.
//  4. Scope deliberately. Repo-wide analyzers run everywhere; contract
//     analyzers declare a package allowlist (see lockorder.Scope,
//     nilness.Swept, maporder.Critical) so the invariant is enforced
//     exactly where it is claimed. Set IncludeTests only when test code
//     can break the invariant (maporder is the precedent).
//  5. For flow-sensitive properties, build on internal/lint/cfg and
//     internal/lint/dataflow instead of ad-hoc AST recursion: define a
//     lattice, a transfer function, and let the solver reach the
//     fixpoint. Report only in a post-fixpoint pass so facts are stable.
//  6. Append the analyzer to All() (alphabetical), then sweep the repo:
//     fix real findings, annotate justified ones with
//     `//lint:<directive> <justification>`, and keep `pegasus-lint ./...`
//     at exit 0: no violations and no stale suppressions —
//     TestRepoIsClean enforces exactly that.
//  7. Document the contract in DESIGN.md ("Enforced invariants").
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"pegasus/internal/lint/analysis"
	"pegasus/internal/lint/atomicmix"
	"pegasus/internal/lint/ctxflow"
	"pegasus/internal/lint/goleak"
	"pegasus/internal/lint/hotalloc"
	"pegasus/internal/lint/load"
	"pegasus/internal/lint/lockorder"
	"pegasus/internal/lint/maporder"
	"pegasus/internal/lint/nilness"
	"pegasus/internal/lint/poolhold"
	"pegasus/internal/lint/typederr"
)

// All returns the full pegasus-lint analyzer suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomicmix.Analyzer,
		ctxflow.Analyzer,
		goleak.Analyzer,
		hotalloc.Analyzer,
		lockorder.Analyzer,
		maporder.Analyzer,
		nilness.Analyzer,
		poolhold.Analyzer,
		typederr.Analyzer,
	}
}

// Finding is one unsuppressed diagnostic with its resolved position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// Result is the outcome of one Run: the surviving findings plus the
// suppression accounting UnusedSuppressions builds on.
type Result struct {
	// Findings are the unsuppressed diagnostics, sorted by position.
	Findings []Finding

	// Suppressed counts, per analyzer name, the diagnostics silenced by a
	// //lint: comment. Test-file diagnostics dropped wholesale (for
	// analyzers without IncludeTests) are not counted — no annotation was
	// involved.
	Suppressed map[string]int

	// used records the file:line of every suppression comment that
	// silenced at least one diagnostic; UnusedSuppressions subtracts it
	// from the set of all //lint: comments.
	used map[string]bool
}

// Run applies every analyzer to every package and returns the surviving
// findings sorted by position plus suppression accounting. Suppression
// rules applied here, uniformly for the CLI, the fixture runner and tests:
//
//   - a //lint:<directive> justification comment on the diagnostic's line
//     or the line above it suppresses the diagnostic;
//   - diagnostics inside _test.go files are dropped unless the analyzer
//     sets IncludeTests — the invariants guard production paths, and tests
//     routinely violate them on purpose (e.g. ranging a map to build an
//     expectation set). maporder opts in: golden-fingerprint expectations
//     are computed in tests too.
func Run(pkgs []*load.Package, analyzers []*analysis.Analyzer) (*Result, error) {
	res := &Result{Suppressed: map[string]int{}, used: map[string]bool{}}
	for _, pkg := range pkgs {
		fileOf := func(pos token.Pos) *ast.File {
			for _, f := range pkg.Files {
				if f.FileStart <= pos && pos <= f.FileEnd {
					return f
				}
			}
			return nil
		}
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			pass.Report = func(d analysis.Diagnostic) {
				position := pkg.Fset.Position(d.Pos)
				if !a.IncludeTests && strings.HasSuffix(position.Filename, "_test.go") {
					return
				}
				if f := fileOf(d.Pos); f != nil {
					if at := analysis.SuppressionAt(pkg.Fset, f, d.Pos, a.DirectiveName()); at.IsValid() {
						res.Suppressed[a.Name]++
						cp := pkg.Fset.Position(at)
						res.used[fmt.Sprintf("%s:%d", cp.Filename, cp.Line)] = true
						return
					}
				}
				res.Findings = append(res.Findings, Finding{Analyzer: a.Name, Pos: position, Message: d.Message})
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: analyzer %s: %v", pkg.Path, a.Name, err)
			}
		}
	}
	sortFindings(res.Findings)
	return res, nil
}

func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// UnusedSuppressions scans every //lint: comment in pkgs and returns a
// finding for each one that did not silence any diagnostic during the Run
// that produced r (the same packages and analyzers must be passed). A
// suppression that fires nothing is debt: either the invariant violation it
// excused is gone (delete the comment) or the directive is misspelled and
// excuses nothing (fix it). Malformed suppressions — an unknown directive,
// or a missing justification — are always findings.
func (r *Result) UnusedSuppressions(pkgs []*load.Package, analyzers []*analysis.Analyzer) []Finding {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.DirectiveName()] = true
	}
	var findings []Finding
	seen := map[string]bool{} // test variants share files with their base package
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					directive, justification, ok := analysis.ParseDirective(c.Text)
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					if seen[key] {
						continue
					}
					seen[key] = true
					switch {
					case !known[directive]:
						findings = append(findings, Finding{Analyzer: "suppressions", Pos: pos, Message: fmt.Sprintf(
							"//lint:%s does not match any analyzer directive — it suppresses nothing; known directives: %s", directive, directiveList(analyzers))})
					case justification == "":
						findings = append(findings, Finding{Analyzer: "suppressions", Pos: pos, Message: fmt.Sprintf(
							"//lint:%s has no justification — a suppression must say why the invariant does not apply (and without one it does not suppress)", directive)})
					case !r.used[key]:
						findings = append(findings, Finding{Analyzer: "suppressions", Pos: pos, Message: fmt.Sprintf(
							"stale //lint:%s suppression: no %s diagnostic is reported here anymore; delete the comment", directive, directive)})
					}
				}
			}
		}
	}
	sortFindings(findings)
	return findings
}

func directiveList(analyzers []*analysis.Analyzer) string {
	var names []string
	for _, a := range analyzers {
		names = append(names, a.DirectiveName())
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
