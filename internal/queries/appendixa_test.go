package queries

import (
	"math"
	"testing"

	"pegasus/internal/gen"
	"pegasus/internal/graph"
	"pegasus/internal/summary"
)

func TestDegreesMatchGraph(t *testing.T) {
	g := gen.BarabasiAlbert(100, 2, 1)
	d := Degrees(GraphOracle{g})
	for u := 0; u < g.NumNodes(); u++ {
		if d[u] != float64(g.Degree(graph.NodeID(u))) {
			t.Fatalf("Degrees[%d] = %v, want %d", u, d[u], g.Degree(graph.NodeID(u)))
		}
	}
}

func TestDegreesOnIdentitySummary(t *testing.T) {
	g := gen.BarabasiAlbert(80, 2, 2)
	s := summary.Identity(g)
	dg := Degrees(GraphOracle{g})
	ds := Degrees(SummaryOracle{s})
	for u := range dg {
		if dg[u] != ds[u] {
			t.Fatalf("identity summary changed degree of %d", u)
		}
	}
}

func TestClusteringCoefficient(t *testing.T) {
	// Triangle: coefficient 1 everywhere. Star: 0 at the hub.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	tri := b.Build()
	if got := ClusteringCoefficient(GraphOracle{tri}, 0); got != 1 {
		t.Fatalf("triangle coefficient = %v, want 1", got)
	}
	sb := graph.NewBuilder(4)
	sb.AddEdge(0, 1)
	sb.AddEdge(0, 2)
	sb.AddEdge(0, 3)
	star := sb.Build()
	if got := ClusteringCoefficient(GraphOracle{star}, 0); got != 0 {
		t.Fatalf("star hub coefficient = %v, want 0", got)
	}
	if got := ClusteringCoefficient(GraphOracle{star}, 1); got != 0 {
		t.Fatalf("degree-1 coefficient = %v, want 0", got)
	}
}

func TestPageRank(t *testing.T) {
	g := gen.BarabasiAlbert(200, 2, 3)
	pr := PageRank(GraphOracle{g}, PageRankConfig{})
	sum := 0.0
	maxU, maxV := 0, 0.0
	for u, v := range pr {
		if v <= 0 {
			t.Fatalf("PageRank[%d] = %v, want > 0", u, v)
		}
		sum += v
		if v > maxV {
			maxU, maxV = u, v
		}
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("PageRank sums to %v, want 1", sum)
	}
	// The top-ranked node should be among the high-degree seed hubs.
	if g.Degree(graph.NodeID(maxU)) < g.MaxDegree()/4 {
		t.Errorf("top PageRank node %d has degree %d, max is %d", maxU, g.Degree(graph.NodeID(maxU)), g.MaxDegree())
	}
	// Identity summary gives identical PageRank.
	s := summary.Identity(g)
	pr2 := PageRank(SummaryOracle{s}, PageRankConfig{})
	for u := range pr {
		if math.Abs(pr[u]-pr2[u]) > 1e-9 {
			t.Fatal("identity summary changed PageRank")
		}
	}
}

func TestEigenvectorCentrality(t *testing.T) {
	// On a star, the hub has the highest centrality.
	b := graph.NewBuilder(5)
	for i := 1; i < 5; i++ {
		b.AddEdge(0, graph.NodeID(i))
	}
	g := b.Build()
	ec := EigenvectorCentrality(GraphOracle{g}, 0, 0)
	for u := 1; u < 5; u++ {
		if ec[u] >= ec[0] {
			t.Fatalf("leaf %d centrality %v >= hub %v", u, ec[u], ec[0])
		}
	}
	// L2 normalized.
	norm := 0.0
	for _, x := range ec {
		norm += x * x
	}
	if math.Abs(norm-1) > 1e-6 {
		t.Fatalf("centrality norm = %v, want 1", norm)
	}
}

func TestDFSOrder(t *testing.T) {
	// Path 0-1-2-3: preorder from 0 is exactly the path.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	order := DFSOrder(GraphOracle{g}, 0)
	want := []graph.NodeID{0, 1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("DFSOrder = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("DFSOrder = %v, want %v", order, want)
		}
	}
}

func TestDijkstraUnweightedMatchesBFS(t *testing.T) {
	g := gen.BarabasiAlbert(150, 2, 4)
	d, err := Dijkstra(GraphOracle{g}, 0)
	if err != nil {
		t.Fatal(err)
	}
	bfs := graph.BFS(g, 0)
	for u := range d {
		if bfs[u] == graph.Unreached {
			if !math.IsInf(d[u], 1) {
				t.Fatalf("node %d: Dijkstra %v, BFS unreached", u, d[u])
			}
			continue
		}
		if math.Abs(d[u]-float64(bfs[u])) > 1e-9 {
			t.Fatalf("node %d: Dijkstra %v != BFS %d", u, d[u], bfs[u])
		}
	}
}

func TestDijkstraWeightsLowerCost(t *testing.T) {
	// Two parallel 2-hop routes 0-1-3 (heavy, w=4 each) vs 0-2-3 (light,
	// w=0.5): cost via weights 1/w makes the heavy route cheaper.
	s := summary.New([]uint32{0, 1, 2, 3},
		[][]uint32{{1, 2}, {3}, {3}, nil},
		[][]float64{{4, 0.5}, {4}, {0.5}, nil})
	d, err := Dijkstra(SummaryOracle{s}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d[3]-0.5) > 1e-9 { // 1/4 + 1/4 via node 1
		t.Fatalf("d[3] = %v, want 0.5 (heavy route)", d[3])
	}
	if math.Abs(d[1]-0.25) > 1e-9 {
		t.Fatalf("d[1] = %v, want 0.25", d[1])
	}
	if err := assertRange(d); err != nil {
		t.Fatal(err)
	}
}

func assertRange(d []float64) error {
	for _, x := range d {
		if x < 0 {
			return errNegative
		}
	}
	return nil
}

var errNegative = errorString("negative distance")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestDijkstraRangeCheck(t *testing.T) {
	g := gen.BarabasiAlbert(10, 2, 5)
	if _, err := Dijkstra(GraphOracle{g}, 99); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}
