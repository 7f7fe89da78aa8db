package queries

import (
	"context"

	"pegasus/internal/graph"
	"pegasus/internal/summary"
)

// PHPConfig parameterizes penalized hitting probability.
type PHPConfig struct {
	// C is the penalty factor c (default 0.95, §V-A).
	C float64
	// Eps is the L∞ convergence tolerance (default 1e-9).
	Eps float64
	// MaxIter caps fixed-point iterations (default 1000).
	MaxIter int
	// Ctx, when non-nil, is checked once per fixed-point iteration; a
	// cancelled context aborts the query with the context's error.
	Ctx context.Context
}

func (c PHPConfig) withDefaults() PHPConfig {
	if c.C == 0 {
		c.C = 0.95
	}
	if c.Eps == 0 {
		c.Eps = 1e-9
	}
	if c.MaxIter == 0 {
		c.MaxIter = 1000
	}
	return c
}

// PHP computes penalized hitting probabilities w.r.t. query node q [45],
// [46]: PHP_q = 1 and PHP_u = c · Σ_{v∈N_u} (w_uv/w_u)·PHP_v for u ≠ q,
// solved by Jacobi fixed-point iteration over any Oracle. For many queries
// on one artifact, a Session shares the weighted-degree precompute.
func PHP(o Oracle, q graph.NodeID, cfg PHPConfig) ([]float64, error) {
	return NewSession(o).PHP(q, cfg)
}

// GraphPHP answers PHP exactly on the input graph.
func GraphPHP(g *graph.Graph, q graph.NodeID, cfg PHPConfig) ([]float64, error) {
	return PHP(GraphOracle{g}, q, cfg)
}

// SummaryPHP answers PHP on a summary graph by iterating over supernodes
// (reconstructed adjacency is block-constant, as in SummaryRWR): O(|S|+|P|)
// vector work and one register addition per node per iteration, plus one
// O(|V|) expansion of the answer. For many queries on one summary, a
// NewSummarySession shares the precompute across calls.
func SummaryPHP(s *summary.Summary, q graph.NodeID, cfg PHPConfig) ([]float64, error) {
	return NewSummarySession(s).PHP(q, cfg)
}
