// Package queries implements the three node-similarity queries of §V-A —
// random walk with restart (RWR, Alg. 6), shortest-path hop counts (HOP,
// Alg. 5) and penalized hitting probability (PHP) — both exactly on an input
// graph and approximately on a summary graph.
//
// Summary-side answering comes in two flavors: a naive reference that
// expands Alg. 4 neighborhoods node by node (exactly the paper's
// pseudocode), and block-accelerated versions exploiting that reconstructed
// adjacency is constant within supernode blocks: every member of a
// supernode but the query node gets the same answer, so they iterate over
// supernodes, bringing the per-iteration cost down from O(|Ê|) to
// O(|S|+|P|) vector work plus one register addition per node (and one read
// per dead-end node for RWR), and answer at supernode granularity
// (Answer). The two are cross-validated in tests.
package queries

import (
	"pegasus/internal/graph"
	"pegasus/internal/summary"
)

// Oracle abstracts neighborhood access so that the naive query
// implementations run identically on a graph and on a summary (Appendix A:
// "a wide range of graph algorithms access graphs only through neighborhood
// queries").
type Oracle interface {
	// NumNodes returns the node count.
	NumNodes() int
	// ForEachNeighbor calls fn for every (possibly reconstructed) neighbor
	// of u with the corresponding edge weight (1 on unweighted graphs).
	ForEachNeighbor(u graph.NodeID, fn func(v graph.NodeID, w float64))
}

// GraphOracle adapts *graph.Graph to Oracle with unit weights.
type GraphOracle struct{ G *graph.Graph }

// NumNodes implements Oracle.
func (o GraphOracle) NumNodes() int { return o.G.NumNodes() }

// ForEachNeighbor implements Oracle.
func (o GraphOracle) ForEachNeighbor(u graph.NodeID, fn func(v graph.NodeID, w float64)) {
	for _, v := range o.G.Neighbors(u) {
		fn(v, 1)
	}
}

// SummaryOracle adapts *summary.Summary to Oracle by expanding Alg. 4
// neighborhoods with superedge weights.
type SummaryOracle struct{ S *summary.Summary }

// NumNodes implements Oracle.
func (o SummaryOracle) NumNodes() int { return o.S.NumNodes() }

// ForEachNeighbor implements Oracle.
func (o SummaryOracle) ForEachNeighbor(u graph.NodeID, fn func(v graph.NodeID, w float64)) {
	su := o.S.Supernode(u)
	o.S.ForEachSuperNeighbor(su, func(b uint32, w float64) {
		for _, v := range o.S.Members(b) {
			if v != u {
				fn(v, w)
			}
		}
	})
}
