// Package s2l reimplements S2L (Riondato, García-Soriano & Bonchi, "Graph
// summarization with quality guarantees", DMKD 2017): graph summarization as
// geometric clustering of the adjacency-matrix rows into k clusters. The
// paper's evaluation uses the L1 reconstruction error without
// dimensionality reduction (§V-A), i.e. k-median over binary rows, which we
// solve with Lloyd-style iterations: binary (majority-vote) centroids
// minimize the L1 objective exactly for fixed assignments.
//
// The L1 distance from a node row to a sparse centroid is computed in
// O(deg + |centroid|) without densifying: ‖row_u − c‖₁ = ‖c‖₁ +
// Σ_{v∈N(u)} (1 − 2·c_v).
package s2l

import (
	"fmt"
	"math/rand"

	"pegasus/internal/graph"
	"pegasus/internal/summary"
)

// Config parameterizes Summarize.
type Config struct {
	// K is the desired number of supernodes (clusters).
	K int
	// Iterations bounds Lloyd iterations (default 10).
	Iterations int
	// Seed drives the initialization.
	Seed int64
}

// Summarize runs S2L on g.
func Summarize(g *graph.Graph, cfg Config) (*summary.Summary, error) {
	n := g.NumNodes()
	if cfg.K < 1 || cfg.K > n {
		return nil, fmt.Errorf("s2l: K must be in [1,%d], got %d", n, cfg.K)
	}
	if cfg.Iterations == 0 {
		cfg.Iterations = 10
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Centroids are sparse maps node -> coordinate value in [0,1]; after
	// each Lloyd step they are binary medians (majority votes), so the
	// distance shortcut stays sparse.
	centroids := make([]map[graph.NodeID]float64, cfg.K)
	norm1 := make([]float64, cfg.K) // ‖c‖₁ cache

	// Initialize centroids from k distinct random node rows.
	perm := rng.Perm(n)
	for i := 0; i < cfg.K; i++ {
		c := make(map[graph.NodeID]float64)
		for _, v := range g.Neighbors(graph.NodeID(perm[i])) {
			c[v] = 1
		}
		centroids[i] = c
		norm1[i] = float64(len(c))
	}

	assign := make([]uint32, n)
	for iter := 0; iter < cfg.Iterations; iter++ {
		changed := 0
		for u := 0; u < n; u++ {
			bestD := 0.0
			best := uint32(0)
			for c := 0; c < cfg.K; c++ {
				d := norm1[c]
				for _, v := range g.Neighbors(graph.NodeID(u)) {
					d += 1 - 2*centroids[c][v]
				}
				if c == 0 || d < bestD {
					bestD, best = d, uint32(c)
				}
			}
			if assign[u] != best {
				assign[u] = best
				changed++
			}
		}
		if changed == 0 && iter > 0 {
			break
		}
		// Recompute binary median centroids: coordinate v is 1 iff more than
		// half of the cluster's members are adjacent to v.
		counts := make([]map[graph.NodeID]float64, cfg.K)
		sizes := make([]float64, cfg.K)
		for c := range counts {
			counts[c] = make(map[graph.NodeID]float64)
		}
		for u := 0; u < n; u++ {
			c := assign[u]
			sizes[c]++
			for _, v := range g.Neighbors(graph.NodeID(u)) {
				counts[c][v]++
			}
		}
		for c := 0; c < cfg.K; c++ {
			nc := make(map[graph.NodeID]float64)
			//lint:ordered builds a set: each key is kept on its own count
			for v, cnt := range counts[c] {
				if 2*cnt > sizes[c] {
					nc[v] = 1
				}
			}
			if sizes[c] == 0 {
				// Re-seed an empty cluster with a random row to keep k
				// clusters alive.
				u := graph.NodeID(rng.Intn(n))
				for _, v := range g.Neighbors(u) {
					nc[v] = 1
				}
			}
			centroids[c] = nc
			norm1[c] = float64(len(nc))
		}
	}

	// Empty clusters may remain; FromPartitionDensity drops unused labels
	// automatically (labels are remapped densely).
	return summary.FromPartitionDensity(g, assign), nil
}
