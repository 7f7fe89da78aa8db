package distributed

import (
	"math"
	"testing"

	"pegasus/internal/core"
	"pegasus/internal/gen"
	"pegasus/internal/graph"
	"pegasus/internal/metrics"
	"pegasus/internal/partition"
	"pegasus/internal/queries"
)

func clusterGraph(seed int64) *graph.Graph {
	g := gen.PlantedPartition(gen.SBMConfig{Nodes: 240, Communities: 4, AvgDegree: 12, MixingP: 0.08}, seed)
	lcc, _ := graph.LargestComponent(g)
	return lcc
}

func TestBuildSummaryCluster(t *testing.T) {
	g := clusterGraph(1)
	m := 4
	labels := partition.Partition(g, m, partition.MethodLouvain, 2)
	budget := 0.5 * g.SizeBits()
	c, err := BuildSummaryCluster(g, labels, m, budget, core.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Machines) != m {
		t.Fatalf("machines = %d, want %d", len(c.Machines), m)
	}
	for i, mc := range c.Machines {
		if mc.Summary == nil {
			t.Fatalf("machine %d has no summary", i)
		}
		if mc.SizeBits() > budget+1e-6 {
			t.Errorf("machine %d exceeds budget: %.0f > %.0f", i, mc.SizeBits(), budget)
		}
	}
	if c.MaxMachineBits() > budget+1e-6 {
		t.Error("MaxMachineBits exceeds budget")
	}
}

func TestRoutingFollowsPartition(t *testing.T) {
	g := clusterGraph(2)
	m := 4
	labels := partition.RandomBalanced(g.NumNodes(), m, 5)
	budget := 0.6 * g.SizeBits()
	c, err := BuildSummaryCluster(g, labels, m, budget, core.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.NumNodes(); u += 17 {
		i, err := c.Route(graph.NodeID(u))
		if err != nil {
			t.Fatal(err)
		}
		if i != labels[u] {
			t.Fatalf("node %d routed to %d, want %d", u, i, labels[u])
		}
	}
	if _, err := c.Route(graph.NodeID(99999)); err == nil {
		t.Error("out-of-range query accepted")
	}
	for u := 0; u < g.NumNodes(); u += 29 {
		mc, err := c.RouteMachine(graph.NodeID(u))
		if err != nil {
			t.Fatal(err)
		}
		if mc != c.Machines[labels[u]] {
			t.Fatalf("node %d routed to the wrong machine", u)
		}
	}
	if _, err := c.RouteMachine(graph.NodeID(99999)); err == nil {
		t.Error("RouteMachine accepted an out-of-range query")
	}
}

func TestClusterQueriesRun(t *testing.T) {
	g := clusterGraph(3)
	m := 2
	labels := partition.Partition(g, m, partition.MethodLouvain, 4)
	budget := 0.5 * g.SizeBits()
	c, err := BuildSummaryCluster(g, labels, m, budget, core.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := graph.NodeID(7)
	r, err := c.RWR(q, queries.RWRConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r) != g.NumNodes() {
		t.Fatalf("RWR vector length %d, want %d", len(r), g.NumNodes())
	}
	h, err := c.HOP(q)
	if err != nil {
		t.Fatal(err)
	}
	if h[q] != 0 {
		t.Fatal("HOP at query node must be 0")
	}
	p, err := c.PHP(q, queries.PHPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if p[q] != 1 {
		t.Fatal("PHP at query node must be 1")
	}
}

func TestComposeSubgraphBudget(t *testing.T) {
	g := clusterGraph(4)
	budget := 0.3 * g.SizeBits()
	sub := ComposeSubgraph(g, []graph.NodeID{0, 1, 2}, budget)
	if sub.NumNodes() != g.NumNodes() {
		t.Fatalf("subgraph node space %d, want %d", sub.NumNodes(), g.NumNodes())
	}
	if sub.SizeBits() > budget+1e-6 {
		t.Fatalf("subgraph size %.0f exceeds budget %.0f", sub.SizeBits(), budget)
	}
	// Edges near the subset are preferred: node 0's own edges survive.
	if sub.Degree(0) == 0 && g.Degree(0) > 0 {
		t.Error("closest edges (incident to subset) were dropped")
	}
	// Large budget returns the graph as-is.
	full := ComposeSubgraph(g, []graph.NodeID{0}, 10*g.SizeBits())
	if full.NumEdges() != g.NumEdges() {
		t.Error("oversized budget should keep every edge")
	}
}

func TestBuildSubgraphCluster(t *testing.T) {
	g := clusterGraph(5)
	m := 4
	labels := partition.Partition(g, m, partition.MethodBLP, 6)
	budget := 0.4 * g.SizeBits()
	c, err := BuildSubgraphCluster(g, labels, m, budget)
	if err != nil {
		t.Fatal(err)
	}
	for i, mc := range c.Machines {
		if mc.Subgraph == nil {
			t.Fatalf("machine %d has no subgraph", i)
		}
		if mc.SizeBits() > budget+1e-6 {
			t.Errorf("machine %d exceeds budget", i)
		}
	}
	// Queries answer locally.
	if _, err := c.RWR(3, queries.RWRConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.HOP(3); err != nil {
		t.Fatal(err)
	}
}

func TestValidationErrors(t *testing.T) {
	g := clusterGraph(6)
	if _, err := BuildSummaryCluster(g, []uint32{0}, 2, 100, core.Config{}); err == nil {
		t.Error("short labels accepted")
	}
	bad := make([]uint32, g.NumNodes())
	bad[0] = 99
	if _, err := BuildSummaryCluster(g, bad, 2, 100, core.Config{}); err == nil {
		t.Error("out-of-range label accepted")
	}
	if _, err := BuildSubgraphCluster(g, bad, 2, 100); err == nil {
		t.Error("out-of-range label accepted by subgraph cluster")
	}
}

// TestPersonalizationHelpsLocally is the unit-level version of Fig. 12's
// claim: a machine's personalized summary answers queries on its own nodes
// more accurately than a summary personalized elsewhere.
func TestPersonalizationHelpsLocally(t *testing.T) {
	g := clusterGraph(7)
	m := 2
	labels := partition.Partition(g, m, partition.MethodLouvain, 8)
	budget := 0.35 * g.SizeBits()
	c, err := BuildSummaryCluster(g, labels, m, budget, core.Config{Seed: 9, Alpha: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	// Pick a query node in part 0 and compare RWR SMAPE answered on machine
	// 0 (personalized to it) vs machine 1 (personalized away from it),
	// averaged over several query nodes for stability.
	var own, other, count float64
	for u := 0; u < g.NumNodes() && count < 12; u++ {
		if labels[u] != 0 {
			continue
		}
		q := graph.NodeID(u)
		truth, err := queries.GraphRWR(g, q, queries.RWRConfig{})
		if err != nil {
			t.Fatal(err)
		}
		a0, err := queries.SummaryRWR(c.Machines[0].Summary, q, queries.RWRConfig{})
		if err != nil {
			t.Fatal(err)
		}
		a1, err := queries.SummaryRWR(c.Machines[1].Summary, q, queries.RWRConfig{})
		if err != nil {
			t.Fatal(err)
		}
		s0, _ := metrics.SMAPE(truth, a0)
		s1, _ := metrics.SMAPE(truth, a1)
		own += s0
		other += s1
		count++
	}
	if count == 0 {
		t.Skip("no nodes in part 0")
	}
	own /= count
	other /= count
	if math.IsNaN(own) || math.IsNaN(other) {
		t.Fatal("NaN SMAPE")
	}
	if own >= other {
		t.Fatalf("own-machine SMAPE %.4f not better than other-machine %.4f", own, other)
	}
}
