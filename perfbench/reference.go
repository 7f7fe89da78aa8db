package main

import (
	"math"

	"pegasus"
)

// The API defaults every served query runs at (QueryParams: restart 0.05,
// eps 1e-9, max_iter 1000); the reference uses the same ones.
const (
	refRestart = 0.05
	refEps     = 1e-9
	refMaxIter = 1000
)

// exactRWR is the benchmark's own yardstick: random walk with restart on
// the original graph by plain power iteration. It deliberately shares no
// code with the program's query kernels, so a change to those kernels can
// move the served answers but never the reference they are scored against.
// The walk restarts at q with probability refRestart and otherwise moves to
// a uniformly random neighbour; a node without neighbours returns its mass
// to q. Iteration starts from the uniform vector and stops once the L1
// change drops below refEps, or after refMaxIter steps.
func exactRWR(g *pegasus.Graph, q pegasus.NodeID) []float64 {
	n := g.NumNodes()
	r := make([]float64, n)
	next := make([]float64, n)
	for i := range r {
		r[i] = 1 / float64(n)
	}
	c := 1 - refRestart
	for iter := 0; iter < refMaxIter; iter++ {
		clear(next)
		dead := 0.0
		for u := 0; u < n; u++ {
			nb := g.Neighbors(pegasus.NodeID(u))
			if len(nb) == 0 {
				dead += r[u]
				continue
			}
			share := r[u] / float64(len(nb))
			for _, v := range nb {
				next[v] += share
			}
		}
		delta := 0.0
		for i := range next {
			next[i] *= c
		}
		next[q] += refRestart + c*dead
		for i := range next {
			delta += math.Abs(next[i] - r[i])
		}
		r, next = next, r
		if delta < refEps {
			break
		}
	}
	return r
}
