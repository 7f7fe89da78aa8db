package queries

import "pegasus/internal/graph"

// Answer is the answer of one query on a summary graph, kept at supernode
// granularity. A summary's reconstructed adjacency is block-constant
// (Alg. 4), so every member of a supernode other than the query node q
// gets the same RWR, PHP and HOP answer, bit for bit: an Answer stores that
// value once per supernode, plus q's own value, over the artifact's
// node-to-supernode map, which it shares and never writes. Expanding it
// gives, bit for bit, the |V|-entry vector a node-level evaluator returns.
// An Answer is immutable and safe for concurrent use.
type Answer struct {
	of []uint32 // the artifact's SupernodeOf
	q  graph.NodeID
	// Exactly one of the value slices is set. Each has |S|+1 entries: the
	// value of supernode A's members other than q at A, and q's own value
	// at |S|.
	scores []float64 // RWR, PHP
	hops   []uint8   // HOP when every finite distance is below 255; 255 is unreached
	hops32 []int32   // HOP otherwise; -1 is unreached
}

// unreached8 marks an unreached supernode in a one-byte HOP answer.
const unreached8 = 255

// newHOPAnswer keeps per-supernode distances (q's at |S|, -1 when
// unreached) one byte each when every finite distance is below 255, and as
// they are otherwise.
func newHOPAnswer(of []uint32, q graph.NodeID, dist []int32) *Answer {
	for _, d := range dist {
		if d >= unreached8 {
			return &Answer{of: of, q: q, hops32: dist}
		}
	}
	hops := make([]uint8, len(dist))
	for i, d := range dist {
		hops[i] = uint8(d) // -1 becomes 255
	}
	return &Answer{of: of, q: q, hops: hops}
}

// Len returns |V|, the length of the expanded answer.
func (a *Answer) Len() int { return len(a.of) }

// At returns node u's entry of the expanded answer: its score, or for a
// HOP answer its distance from q (-1 when unreached).
func (a *Answer) At(u graph.NodeID) float64 {
	if u == a.q {
		return a.value(len(a.scores) + len(a.hops) + len(a.hops32) - 1)
	}
	return a.value(int(a.of[u]))
}

// value returns the value in slot i as a float64.
func (a *Answer) value(i int) float64 {
	switch {
	case a.scores != nil:
		return a.scores[i]
	case a.hops != nil:
		return float64(hopOf(a.hops[i]))
	default:
		return float64(a.hops32[i])
	}
}

// hopOf decodes a one-byte HOP distance.
func hopOf(h uint8) int32 {
	if h == unreached8 {
		return -1
	}
	return int32(h)
}

// Bytes returns the size of the stored values: |S|+1 of them at 8 B per
// score and 1 or 4 B per distance. The node-to-supernode map belongs to
// the artifact and is not counted.
func (a *Answer) Bytes() int64 {
	return int64(8*len(a.scores) + len(a.hops) + 4*len(a.hops32))
}

// Scores returns the expanded |V|-entry score vector of an RWR or PHP
// answer in a new slice, or nil for a HOP answer.
func (a *Answer) Scores() []float64 {
	if a.scores == nil {
		return nil
	}
	out := make([]float64, len(a.of))
	for u, s := range a.of {
		out[u] = a.scores[s]
	}
	out[a.q] = a.scores[len(a.scores)-1]
	return out
}

// Dists returns the expanded |V|-entry distance vector of a HOP answer
// (-1 when unreached) in a new slice, or nil for a score answer.
func (a *Answer) Dists() []int32 {
	if a.scores != nil {
		return nil
	}
	out := make([]int32, len(a.of))
	if a.hops != nil {
		for u, s := range a.of {
			out[u] = hopOf(a.hops[s])
		}
	} else {
		for u, s := range a.of {
			out[u] = a.hops32[s]
		}
	}
	out[a.q] = int32(a.At(a.q))
	return out
}

// TopK returns the k highest-ranked nodes of the expanded answer, in the
// order TopK gives on the expansion, without expanding it: O(|V| log k),
// reading the node-to-supernode map instead of a |V|-entry vector.
func (a *Answer) TopK(k int) []graph.NodeID {
	h := newTopHeap(k, len(a.of))
	for u, s := range a.of {
		if graph.NodeID(u) != a.q {
			h.offer(scored{a.value(int(s)), graph.NodeID(u)})
		}
	}
	h.offer(scored{a.At(a.q), a.q})
	return h.sorted()
}
