package queries

import (
	"fmt"

	"pegasus/internal/graph"
	"pegasus/internal/summary"
)

// HOP answers the shortest-path-length query (Alg. 5) over any Oracle via
// BFS on reconstructed neighborhoods. Unreachable nodes get -1; use
// FillUnreached to apply the paper's convention (length of the longest
// observed path).
func HOP(o Oracle, q graph.NodeID) ([]int32, error) {
	n := o.NumNodes()
	if int(q) >= n {
		return nil, fmt.Errorf("queries: query node %d out of range (|V|=%d)", q, n)
	}
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[q] = 0
	queue := []graph.NodeID{q}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		o.ForEachNeighbor(u, func(v graph.NodeID, _ float64) {
			if dist[v] == -1 {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		})
	}
	return dist, nil
}

// GraphHOP answers HOP exactly on the input graph.
func GraphHOP(g *graph.Graph, q graph.NodeID) ([]int32, error) {
	if int(q) >= g.NumNodes() {
		return nil, fmt.Errorf("queries: query node %d out of range (|V|=%d)", q, g.NumNodes())
	}
	return graph.BFS(g, q), nil
}

// SummaryHOP answers HOP on a summary graph at supernode granularity: one
// BFS over the supernodes, O(|S|+|P|), whose answer is expanded to the
// |V| distances in one O(|V|) pass. All members of a supernode become
// reachable at the same hop (they share their reconstructed neighborhood),
// except for the query node's own supernode, whose remaining members are
// only adjacent to q through a self-loop.
func SummaryHOP(s *summary.Summary, q graph.NodeID) ([]int32, error) {
	if n := s.NumNodes(); int(q) >= n {
		return nil, fmt.Errorf("queries: query node %d out of range (|V|=%d)", q, n)
	}
	return summaryHOP(s, q).Dists(), nil
}

// FillUnreached replaces -1 entries with the maximum observed distance (the
// paper's convention for disconnected pairs: "the length of the longest path
// in the given (sub)graph"). If every node is unreachable, entries become
// fallback. Returns the same slice for chaining.
func FillUnreached(dist []int32, fallback int32) []int32 {
	max := int32(-1)
	for _, d := range dist {
		if d > max {
			max = d
		}
	}
	if max < 0 {
		max = fallback
	}
	for i, d := range dist {
		if d == -1 {
			dist[i] = max
		}
	}
	return dist
}

// ToFloats converts a distance vector to float64 for the accuracy metrics.
func ToFloats(dist []int32) []float64 {
	out := make([]float64, len(dist))
	for i, d := range dist {
		out[i] = float64(d)
	}
	return out
}
