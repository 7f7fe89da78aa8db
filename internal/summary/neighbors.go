package summary

import (
	"slices"

	"pegasus/internal/graph"
)

// Neighbors implements Alg. 4 (getNeighbors): the approximate neighborhood
// N̂_q of q in the reconstructed graph Ĝ, retrieved directly from the summary
// without restoring Ĝ. The result is the union of members of supernodes
// adjacent to S_q (including S_q itself when it carries a self-loop), minus
// q itself. The result is sorted. q must be below NumNodes(); Neighbors
// panics otherwise.
func (s *Summary) Neighbors(q graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	sq := s.superOf[q]
	s.ForEachSuperNeighbor(sq, func(b uint32, _ float64) {
		for _, v := range s.members[b] {
			if v != q {
				out = append(out, v)
			}
		}
	})
	// Each supernode's block of members is sorted, but blocks interleave.
	slices.Sort(out)
	return out
}

// WeightedNeighbor is a reconstructed neighbor with the weight of the
// superedge it came from (1 for unweighted summaries). Used by the weighted
// RWR/PHP query answering of §V-A.
type WeightedNeighbor struct {
	Node   graph.NodeID
	Weight float64
}

// WeightedNeighbors returns the approximate neighborhood with superedge
// weights attached.
func (s *Summary) WeightedNeighbors(q graph.NodeID) []WeightedNeighbor {
	var out []WeightedNeighbor
	sq := s.superOf[q]
	s.ForEachSuperNeighbor(sq, func(b uint32, w float64) {
		for _, v := range s.members[b] {
			if v != q {
				out = append(out, WeightedNeighbor{Node: v, Weight: w})
			}
		}
	})
	return out
}

// ReconstructedDegree returns |N̂_q| without materializing the neighbor set:
// Σ_{B adj S_q} |B|, minus one if S_q has a self-loop (q excluded from its
// own neighborhood).
func (s *Summary) ReconstructedDegree(q graph.NodeID) int {
	sq := s.superOf[q]
	deg := 0
	s.ForEachSuperNeighbor(sq, func(b uint32, _ float64) {
		deg += len(s.members[b])
		if b == sq {
			deg-- // exclude q itself under the self-loop
		}
	})
	return deg
}

// WeightedReconstructedDegree returns Σ_{v ∈ N̂_q} w(S_q, S_v), the weighted
// degree used by weighted RWR/PHP.
func (s *Summary) WeightedReconstructedDegree(q graph.NodeID) float64 {
	sq := s.superOf[q]
	deg := 0.0
	s.ForEachSuperNeighbor(sq, func(b uint32, w float64) {
		c := len(s.members[b])
		if b == sq {
			c--
		}
		deg += w * float64(c)
	})
	return deg
}

// Reconstruct materializes the reconstructed graph Ĝ (§II-A). Intended for
// small graphs and tests; the block structure can make Ĝ quadratically
// larger than the summary.
func (s *Summary) Reconstruct() *graph.Graph {
	b := graph.NewBuilder(s.NumNodes())
	for a := range s.nbr {
		for _, c := range s.nbr[a] {
			if c < uint32(a) {
				continue // handle each superedge once
			}
			ma, mc := s.members[a], s.members[c]
			if uint32(a) == c {
				for x := 0; x < len(ma); x++ {
					for y := x + 1; y < len(ma); y++ {
						b.AddEdge(ma[x], ma[y])
					}
				}
			} else {
				for _, u := range ma {
					for _, v := range mc {
						b.AddEdge(u, v)
					}
				}
			}
		}
	}
	return b.Build()
}
