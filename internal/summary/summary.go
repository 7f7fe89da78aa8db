// Package summary defines the summary-graph artifact produced by all
// summarization methods in this library: a partition of the input nodes into
// supernodes plus a set of (optionally weighted) superedges, including
// self-loops (§II-A).
//
// A summary graph supports direct approximate query answering: Alg. 4 of the
// paper retrieves the approximate neighborhood of a node without
// reconstructing the full graph, and packages queries/metrics build RWR, HOP
// and PHP answering plus error measures on top of the accessors exposed
// here.
//
// PeGaSus and SSumM emit unweighted summaries (every superedge weight 1);
// the k-GraSS/S2L/SAAGs baselines emit density-weighted summaries, whose
// size is accounted by WeightedSizeBits (§V-A).
package summary

import (
	"fmt"
	"math"
	"slices"

	"pegasus/internal/graph"
)

// Summary is an immutable summary graph G=(S,P) over a graph with NumNodes
// nodes. Supernode IDs are dense: 0..NumSupernodes-1.
type Summary struct {
	superOf  []uint32         // node -> supernode
	members  [][]graph.NodeID // supernode -> sorted member nodes
	nbr      [][]uint32       // supernode -> sorted superedge neighbors (may include self)
	wts      [][]float64      // parallel to nbr
	numP     int              // |P| (self-loops count once)
	maxW     float64          // max superedge weight (>= 1 when |P|>0)
	weighted bool             // true when any weight differs from 1
}

// New builds a summary from its canonical form, the one the artifact codec
// stores:
//   - superOf[u] is node u's supernode, with supernode IDs numbered in order
//     of first occurrence over the nodes;
//   - upper[a] lists the superedge neighbours b ≥ a of supernode a (b = a is
//     a self-loop), strictly ascending and within [a, len(upper));
//   - weights runs parallel to upper and holds each superedge's positive
//     weight, or is nil when every weight is 1.
//
// New checks nothing: every producer builds this form by construction, and
// the artifact decoder validates outside bytes before it calls New. The
// summary keeps superOf; upper and weights are only read. The cost is
// O(|V| + |P|).
func New(superOf []uint32, upper [][]uint32, weights [][]float64) *Summary {
	ns := len(upper)
	s := &Summary{
		superOf: superOf,
		members: make([][]graph.NodeID, ns),
		nbr:     make([][]uint32, ns),
		wts:     make([][]float64, ns),
	}
	// Nodes are visited in ascending order, so every member list is sorted.
	for u, a := range superOf {
		s.members[a] = append(s.members[a], graph.NodeID(u))
	}
	// An entry {a,b} with a < b reaches nbr[b] while a ascends, before b's
	// own upper list does, so every neighbour list comes out sorted.
	for a, bs := range upper {
		for i, b := range bs {
			w := 1.0
			if weights != nil {
				w = weights[a][i]
			}
			s.nbr[a] = append(s.nbr[a], b)
			s.wts[a] = append(s.wts[a], w)
			if b != uint32(a) {
				s.nbr[b] = append(s.nbr[b], uint32(a))
				s.wts[b] = append(s.wts[b], w)
			}
			if w > s.maxW {
				s.maxW = w
			}
			if w != 1 {
				s.weighted = true
			}
		}
		s.numP += len(bs)
	}
	return s
}

// Identity returns the summary where every node is its own supernode and
// every edge its own superedge — the initialization of Alg. 1 (line 1).
// Queries answered on it are exact.
func Identity(g *graph.Graph) *Summary {
	n := g.NumNodes()
	superOf := make([]uint32, n)
	upper := make([][]uint32, n)
	for u := range superOf {
		superOf[u] = uint32(u)
		nbrs := g.Neighbors(graph.NodeID(u))
		i, _ := slices.BinarySearch(nbrs, graph.NodeID(u))
		upper[u] = nbrs[i:]
	}
	return New(superOf, upper, nil)
}

// NumNodes returns |V| of the underlying graph.
func (s *Summary) NumNodes() int { return len(s.superOf) }

// NumSupernodes returns |S|.
func (s *Summary) NumSupernodes() int { return len(s.members) }

// NumSuperedges returns |P| (self-loops counted once).
func (s *Summary) NumSuperedges() int { return s.numP }

// Weighted reports whether any superedge weight differs from 1.
func (s *Summary) Weighted() bool { return s.weighted }

// MaxWeight returns the maximum superedge weight (0 when |P| = 0).
func (s *Summary) MaxWeight() float64 { return s.maxW }

// Supernode returns the supernode ID containing node u.
func (s *Summary) Supernode(u graph.NodeID) uint32 { return s.superOf[u] }

// Members returns the sorted member nodes of supernode a. The slice aliases
// internal storage and must not be modified.
func (s *Summary) Members(a uint32) []graph.NodeID { return s.members[a] }

// SupernodeOf returns the node-to-supernode map: element u is Supernode(u).
// The slice aliases internal storage and must not be modified.
func (s *Summary) SupernodeOf() []uint32 { return s.superOf }

// SuperNeighbors returns the sorted superedge neighbors of a, including a
// itself when {a,a} is a self-loop, and their weights, position for
// position. The slices alias internal storage and must not be modified.
func (s *Summary) SuperNeighbors(a uint32) ([]uint32, []float64) { return s.nbr[a], s.wts[a] }

// ForEachSuperNeighbor calls fn for every superedge incident to a, including
// the self-loop {a,a} if present.
func (s *Summary) ForEachSuperNeighbor(a uint32, fn func(b uint32, w float64)) {
	for i, b := range s.nbr[a] {
		fn(b, s.wts[a][i])
	}
}

// SuperDegree returns the number of superedges incident to a (self-loop
// counts once).
func (s *Summary) SuperDegree(a uint32) int { return len(s.nbr[a]) }

// HasSuperedge reports whether {a,b} ∈ P and returns its weight.
func (s *Summary) HasSuperedge(a, b uint32) (float64, bool) {
	ns := s.nbr[a]
	lo, hi := 0, len(ns)
	for lo < hi {
		mid := (lo + hi) / 2
		if ns[mid] < b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ns) && ns[lo] == b {
		return s.wts[a][lo], true
	}
	return 0, false
}

// SizeBits returns the size of the summary in bits per Eq. (3):
// 2|P|·log2|S| + |V|·log2|S|. For weighted summaries use WeightedSizeBits.
func (s *Summary) SizeBits() float64 {
	k := float64(s.NumSupernodes())
	if k <= 1 {
		// log2(1)=0; a single supernode costs nothing to address but the
		// convention below keeps sizes monotone in |P|.
		k = 2
	}
	return (2*float64(s.numP) + float64(s.NumNodes())) * math.Log2(k)
}

// WeightedSizeBits returns the size in bits of a weighted summary graph per
// §V-A: |P|·(2·log2|S| + log2(ω_max)) + |V|·log2|S|.
func (s *Summary) WeightedSizeBits() float64 {
	k := float64(s.NumSupernodes())
	if k <= 1 {
		k = 2
	}
	wBits := 0.0
	if s.maxW > 1 {
		wBits = math.Log2(s.maxW)
	}
	return float64(s.numP)*(2*math.Log2(k)+wBits) + float64(s.NumNodes())*math.Log2(k)
}

// AutoSizeBits dispatches to WeightedSizeBits for weighted summaries and
// SizeBits otherwise.
func (s *Summary) AutoSizeBits() float64 {
	if s.weighted {
		return s.WeightedSizeBits()
	}
	return s.SizeBits()
}

// CompressionRatio returns AutoSizeBits / Size(G) for the given input graph.
func (s *Summary) CompressionRatio(g *graph.Graph) float64 {
	gs := g.SizeBits()
	if gs == 0 {
		return 0
	}
	return s.AutoSizeBits() / gs
}

// String implements fmt.Stringer.
func (s *Summary) String() string {
	return fmt.Sprintf("summary{|V|=%d |S|=%d |P|=%d}", s.NumNodes(), s.NumSupernodes(), s.NumSuperedges())
}

// Validate checks structural invariants: the supernode map matches member
// lists (a partition of V), superedge lists are sorted and symmetric, and
// weights are positive. Intended for tests.
func (s *Summary) Validate() error {
	seen := make([]bool, s.NumNodes())
	for a, ms := range s.members {
		if len(ms) == 0 {
			return fmt.Errorf("summary: empty supernode %d", a)
		}
		for i, u := range ms {
			if i > 0 && ms[i-1] >= u {
				return fmt.Errorf("summary: members of %d not sorted", a)
			}
			if s.superOf[u] != uint32(a) {
				return fmt.Errorf("summary: node %d in members of %d but superOf=%d", u, a, s.superOf[u])
			}
			if seen[u] {
				return fmt.Errorf("summary: node %d appears in two supernodes", u)
			}
			seen[u] = true
		}
	}
	for u, ok := range seen {
		if !ok {
			return fmt.Errorf("summary: node %d in no supernode", u)
		}
	}
	count := 0
	for a := range s.nbr {
		if len(s.nbr[a]) != len(s.wts[a]) {
			return fmt.Errorf("summary: nbr/wts length mismatch at %d", a)
		}
		for i, b := range s.nbr[a] {
			if i > 0 && s.nbr[a][i-1] >= b {
				return fmt.Errorf("summary: superneighbors of %d not sorted", a)
			}
			if int(b) >= s.NumSupernodes() {
				return fmt.Errorf("summary: superedge to unknown supernode %d", b)
			}
			if s.wts[a][i] <= 0 {
				return fmt.Errorf("summary: non-positive weight on {%d,%d}", a, b)
			}
			w, ok := s.HasSuperedge(b, uint32(a))
			if !ok || w != s.wts[a][i] {
				return fmt.Errorf("summary: superedge {%d,%d} asymmetric", a, b)
			}
			if b >= uint32(a) {
				count++
			}
		}
	}
	if count != s.numP {
		return fmt.Errorf("summary: |P|=%d but counted %d", s.numP, count)
	}
	return nil
}
