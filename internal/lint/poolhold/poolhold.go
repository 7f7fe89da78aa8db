// Package poolhold enforces the serving layer's slot-discipline invariant,
// the deadlock class fixed by hand in PR 3: code running inside a bounded
// worker-pool slot must never block on work that itself needs a slot.
// Concretely, the function literal passed to a Pool's Run method (the
// lexical window during which the slot is held) may not
//
//   - wait on a singleflight (Group.Do/DoChan, Cache.GetOrCompute and
//     its store-flag variant getOrCompute): the flight leader may need a
//     pool slot of its own, and with every slot occupied by waiters the
//     pool deadlocks;
//   - receive from a channel or run a select without a default clause;
//   - call a Wait method (sync.WaitGroup, sync.Cond, errgroup).
//
// Blocking work belongs outside the slot ("self-pooling compute closures":
// the compute closure acquires the slot, the flight wait happens outside).
// A call site that provably cannot deadlock carries
// //lint:poolhold <why this cannot wait on a slot-holder>.
package poolhold

import (
	"go/ast"
	"go/token"

	"pegasus/internal/lint/analysis"
	"pegasus/internal/lint/lintutil"
)

// Analyzer flags blocking calls lexically inside a pool-slot window.
var Analyzer = &analysis.Analyzer{
	Name: "poolhold",
	Doc: "flag blocking waits inside a worker-pool slot acquire/release window\n\n" +
		"Never wait on a singleflight, channel, or WaitGroup while holding a\n" +
		"bounded pool slot: if the work being awaited needs a slot too, the\n" +
		"pool deadlocks under saturation. Move the wait outside the slot or\n" +
		"annotate //lint:poolhold with a deadlock-freedom argument.",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isPoolRun(pass, call) {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					checkWindow(pass, lit.Body)
				}
			}
			return true
		})
	}
	return nil, nil
}

// isPoolRun reports whether call invokes the Run method of a type whose
// name contains "Pool" — the slot acquire/release window of the repo's
// bounded worker pools.
func isPoolRun(pass *analysis.Pass, call *ast.CallExpr) bool {
	f := lintutil.CalleeFunc(pass, call)
	if f == nil || f.Name() != "Run" {
		return false
	}
	recv := lintutil.ReceiverTypeName(f)
	return recv != "" && containsPool(recv)
}

func containsPool(name string) bool {
	for i := 0; i+4 <= len(name); i++ {
		if name[i:i+4] == "Pool" || name[i:i+4] == "pool" {
			return true
		}
	}
	return false
}

// checkWindow walks the slot-holding window and reports blocking
// constructs. Bodies of `go` statements are excluded: a goroutine spawned
// from the window blocks its own stack, not the slot holder's.
func checkWindow(pass *analysis.Pass, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.Pos(),
					"channel receive while holding a pool slot can deadlock the pool; move the wait outside the slot or annotate //lint:poolhold")
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				pass.Reportf(n.Pos(),
					"select without default blocks while holding a pool slot; move the wait outside the slot or annotate //lint:poolhold")
			}
			// Comm clauses were already reported via the select itself;
			// don't double-report each receive inside it.
			for _, stmt := range n.Body.List {
				if comm, ok := stmt.(*ast.CommClause); ok {
					for _, s := range comm.Body {
						checkWindow(pass, s)
					}
				}
			}
			return false
		case *ast.CallExpr:
			if name, blocking := blockingCall(pass, n); blocking {
				pass.Reportf(n.Pos(),
					"%s waits while holding a pool slot — if the awaited work needs a slot, the pool deadlocks; move it outside the slot or annotate //lint:poolhold", name)
			}
		}
		return true
	})
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, stmt := range sel.Body.List {
		if comm, ok := stmt.(*ast.CommClause); ok && comm.Comm == nil {
			return true
		}
	}
	return false
}

// blockingCall classifies calls that wait on other goroutines: any Wait
// method, singleflight-style Do/DoChan on a Group, and the cache's
// singleflight entry points GetOrCompute and getOrCompute (its variant
// with a store flag).
func blockingCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	f := lintutil.CalleeFunc(pass, call)
	if f == nil {
		return "", false
	}
	recv := lintutil.ReceiverTypeName(f)
	switch f.Name() {
	case "Wait":
		if recv != "" {
			return recv + ".Wait", true
		}
	case "Do", "DoChan":
		if recv == "Group" {
			return recv + "." + f.Name() + " (singleflight)", true
		}
	case "GetOrCompute", "getOrCompute":
		if recv != "" {
			return recv + "." + f.Name() + " (singleflight)", true
		}
	}
	return "", false
}
