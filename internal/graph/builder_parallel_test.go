package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// TestFromSortedEdgesMatchesFromEdges pins the parallel CSR assembly to the
// sequential constructor: for random sorted deduplicated edge sets, every
// worker count must produce a valid graph with the same edge list.
func TestFromSortedEdgesMatchesFromEdges(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 100 + rng.Intn(3000)
		m := 4 * n
		seen := map[Edge]bool{}
		edges := make([]Edge, 0, m)
		for len(edges) < m {
			u := NodeID(rng.Intn(n))
			v := NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			e := Edge{U: u, V: v}
			if seen[e] {
				continue
			}
			seen[e] = true
			edges = append(edges, e)
		}
		slices.SortFunc(edges, func(a, b Edge) int {
			if a.U != b.U {
				if a.U < b.U {
					return -1
				}
				return 1
			}
			switch {
			case a.V < b.V:
				return -1
			case a.V > b.V:
				return 1
			}
			return 0
		})
		want := FromEdges(n, edges)
		for _, w := range []int{1, 2, 8} {
			g := FromSortedEdges(n, edges, w)
			if err := g.Validate(); err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, w, err)
			}
			if !sameGraph(g, want) {
				t.Fatalf("seed %d workers %d: FromSortedEdges differs from FromEdges", seed, w)
			}
		}
	}
}

func TestFromSortedEdgesEmpty(t *testing.T) {
	g := FromSortedEdges(0, nil, 4)
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph: %v", g)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// sameGraph reports whether a and b have the same node count and edge
// list, which for valid graphs means identical CSR arrays.
func sameGraph(a, b *Graph) bool {
	return a.NumNodes() == b.NumNodes() && slices.Equal(a.EdgeList(), b.EdgeList())
}
