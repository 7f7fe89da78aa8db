package summary

import "pegasus/internal/graph"

// FromPartitionDensity builds the density-weighted summary induced by a node
// partition: for every supernode pair (including self pairs) connected by at
// least one edge, a superedge is added whose weight is the edge density of
// the block (edges present / possible pairs). This is the output form of the
// k-GraSS, S2L and SAAGs baselines, which "add superedges without selection"
// (§V-D) — hence their dense summaries.
func FromPartitionDensity(g *graph.Graph, labels []uint32) *Summary {
	// Partition labels are arbitrary uint32 values; New takes supernode IDs
	// in order of first occurrence over the nodes.
	ids := make(map[uint32]uint32)
	superOf := make([]uint32, len(labels))
	var members [][]graph.NodeID
	for u, l := range labels {
		a, ok := ids[l]
		if !ok {
			a = uint32(len(members))
			ids[l] = a
			members = append(members, nil)
		}
		superOf[u] = a
		members[a] = append(members[a], graph.NodeID(u))
	}
	// Count each block {a,b}, a ≤ b, from its later supernode b while b
	// ascends, so every upper list comes out sorted. An edge inside b is
	// counted from its higher endpoint only.
	upper := make([][]uint32, len(members))
	weights := make([][]float64, len(members))
	count := make([]float64, len(members))
	var touched []uint32
	for b, ms := range members {
		for _, u := range ms {
			for _, v := range g.Neighbors(u) {
				a := superOf[v]
				if a > uint32(b) || (a == uint32(b) && v > u) {
					continue
				}
				if count[a] == 0 {
					touched = append(touched, a)
				}
				count[a]++
			}
		}
		sb := float64(len(ms))
		for _, a := range touched {
			pairs := float64(len(members[a])) * sb
			if a == uint32(b) {
				pairs = sb * (sb - 1) / 2
			}
			upper[a] = append(upper[a], uint32(b))
			weights[a] = append(weights[a], count[a]/pairs)
			count[a] = 0
		}
		touched = touched[:0]
	}
	return New(superOf, upper, weights)
}
