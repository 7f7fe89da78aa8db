package graph

import "sort"

// Stats summarizes structural properties of a graph; used by Table II and
// by the dataset stand-in calibration.
type Stats struct {
	Nodes      int
	Edges      int64
	MinDegree  int
	MaxDegree  int
	AvgDegree  float64
	MedDegree  float64
	Triangles  int64   // number of triangles (each counted once)
	GlobalCC   float64 // transitivity: 3·triangles / #wedges
	Components int
}

// ComputeStats measures g. Triangle counting is O(Σ_u deg(u)²) worst case
// (forward counting over ordered adjacency), fine for the library's scales.
func ComputeStats(g *Graph) Stats {
	n := g.NumNodes()
	s := Stats{Nodes: n, Edges: g.NumEdges()}
	if n == 0 {
		return s
	}
	degrees := make([]int, n)
	s.MinDegree = g.Degree(0)
	for u := 0; u < n; u++ {
		d := g.Degree(NodeID(u))
		degrees[u] = d
		if d < s.MinDegree {
			s.MinDegree = d
		}
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	s.AvgDegree = g.AvgDegree()
	sorted := append([]int(nil), degrees...)
	sort.Ints(sorted)
	if n%2 == 1 {
		s.MedDegree = float64(sorted[n/2])
	} else {
		s.MedDegree = float64(sorted[n/2-1]+sorted[n/2]) / 2
	}
	s.Triangles = CountTriangles(g)
	var wedges int64
	for _, d := range degrees {
		wedges += int64(d) * int64(d-1) / 2
	}
	if wedges > 0 {
		s.GlobalCC = 3 * float64(s.Triangles) / float64(wedges)
	}
	_, s.Components = Components(g)
	return s
}

// CountTriangles counts triangles by forward counting: for each edge (u,v)
// with u < v, intersect the higher-ID portions of their adjacency lists.
func CountTriangles(g *Graph) int64 {
	var count int64
	g.Edges(func(u, v NodeID) bool {
		nu := tail(g.Neighbors(u), v)
		nv := tail(g.Neighbors(v), v)
		i, j := 0, 0
		for i < len(nu) && j < len(nv) {
			switch {
			case nu[i] < nv[j]:
				i++
			case nu[i] > nv[j]:
				j++
			default:
				count++
				i++
				j++
			}
		}
		return true
	})
	return count
}

// tail returns the suffix of sorted ns with entries > v.
func tail(ns []NodeID, v NodeID) []NodeID {
	lo, hi := 0, len(ns)
	for lo < hi {
		mid := (lo + hi) / 2
		if ns[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return ns[lo:]
}
