package queries

import (
	"context"

	"pegasus/internal/graph"
	"pegasus/internal/summary"
)

// RWRConfig parameterizes random walk with restart.
type RWRConfig struct {
	// Restart is the restarting probability (default 0.05, §V-A).
	Restart float64
	// Eps is the L1 convergence tolerance (default 1e-9).
	Eps float64
	// MaxIter caps power iterations (default 1000).
	MaxIter int
	// Ctx, when non-nil, is checked once per power iteration; a cancelled
	// context aborts the query with the context's error.
	Ctx context.Context
}

func (c RWRConfig) withDefaults() RWRConfig {
	if c.Restart == 0 {
		c.Restart = 0.05
	}
	if c.Eps == 0 {
		c.Eps = 1e-9
	}
	if c.MaxIter == 0 {
		c.MaxIter = 1000
	}
	return c
}

// RWR computes the stationary random-walk-with-restart distribution w.r.t.
// query node q over any Oracle: with probability 1−restart the walker moves
// to a (weight-proportional) random neighbor, otherwise it restarts at q.
// Dead-end mass is redirected to q, keeping the vector stochastic. This is
// the generic implementation of Alg. 6; use SummaryRWR for the
// block-accelerated equivalent on summaries, and a Session to amortize the
// weighted-degree precompute over many queries.
func RWR(o Oracle, q graph.NodeID, cfg RWRConfig) ([]float64, error) {
	return NewSession(o).RWR(q, cfg)
}

// GraphRWR answers RWR exactly on the input graph (the ground truth of the
// evaluation).
func GraphRWR(g *graph.Graph, q graph.NodeID, cfg RWRConfig) ([]float64, error) {
	return RWR(GraphOracle{g}, q, cfg)
}

// SummaryRWR answers RWR on a summary graph without expanding reconstructed
// neighborhoods: since the reconstructed adjacency is block-constant, every
// member of a supernode other than q holds the same value, so the
// iteration runs over supernodes instead of expanding O(|Ê|) entries:
// O(|S|+|P|) vector work, one read per dead-end node and one register
// addition per node per iteration, plus one O(|V|) expansion of the
// answer. For many queries on one summary, a NewSummarySession shares the
// precompute across calls.
func SummaryRWR(s *summary.Summary, q graph.NodeID, cfg RWRConfig) ([]float64, error) {
	return NewSummarySession(s).RWR(q, cfg)
}
