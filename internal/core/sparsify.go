package core

import "sort"

// sparsify drops superedges until the summary fits the bit budget (§III-F).
// Superedges are dropped in increasing order of the cost the pair carries
// once dropped — its error-correction cost log2|V|·(ordered edge mass) — so
// the superedges whose removal introduces the least weighted error go first
// (DESIGN.md "Sparsification order" gives why "increasing order of Cost_AB"
// is read this way).
// Returns the number of superedges removed.
func (e *engine) sparsify(budgetBits float64) int {
	if e.sizeBits() <= budgetBits || e.numP == 0 {
		return 0
	}
	type se struct {
		a, b uint32
		mass float64 // ordered weighted edge mass covered by this superedge
	}
	masses := make(map[[2]uint32]float64, e.numP)
	e.g.Edges(func(u, v uint32) bool {
		a, b := e.superOf[u], e.superOf[v]
		if a > b {
			a, b = b, a
		}
		if e.hasSuperedge(a, b) {
			masses[[2]uint32{a, b}] += 2 * e.pi[u] * e.pi[v]
		}
		return true
	})
	edges := make([]se, 0, e.numP)
	for a, sa := range e.sedges {
		for _, x := range sa {
			if x >= uint32(a) {
				edges = append(edges, se{uint32(a), x, masses[[2]uint32{uint32(a), x}]})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].mass != edges[j].mass {
			return edges[i].mass < edges[j].mass
		}
		if edges[i].a != edges[j].a {
			return edges[i].a < edges[j].a
		}
		return edges[i].b < edges[j].b
	})
	dropped := 0
	for _, s := range edges {
		if e.sizeBits() <= budgetBits {
			break
		}
		e.sedges[s.a] = deleteSorted(e.sedges[s.a], s.b)
		if s.a != s.b {
			e.sedges[s.b] = deleteSorted(e.sedges[s.b], s.a)
		}
		e.numP--
		dropped++
	}
	return dropped
}
