package main

import (
	"math"
	"testing"

	"pegasus"
)

// The benchmark's own power iteration must agree with the library's exact
// RWR; the cross-check runs here, once, so the benchmark itself never calls
// the query kernels it scores.
func TestExactRWRMatchesLibrary(t *testing.T) {
	b := pegasus.NewGraphBuilder(301)
	g0 := pegasus.GenerateBA(300, 3, 9)
	g0.Edges(func(u, v pegasus.NodeID) bool { b.AddEdge(u, v); return true })
	g := b.Build() // node 300 has no neighbours: its mass returns to q
	for _, q := range []pegasus.NodeID{0, 17, 299, 300} {
		want, err := pegasus.GraphRWR(g, q, pegasus.RWRConfig{Restart: refRestart, Eps: refEps, MaxIter: refMaxIter})
		if err != nil {
			t.Fatal(err)
		}
		got := exactRWR(g, q)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("q=%d: score[%d] = %v, library %v", q, i, got[i], want[i])
			}
		}
	}
}
