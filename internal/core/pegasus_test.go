package core

import (
	"math"
	"testing"

	"pegasus/internal/gen"
	"pegasus/internal/graph"
	"pegasus/internal/weights"
)

func baGraph(t *testing.T, n, m int, seed int64) *graph.Graph {
	t.Helper()
	g := gen.BarabasiAlbert(n, m, seed)
	if err := g.Validate(); err != nil {
		t.Fatalf("generator produced invalid graph: %v", err)
	}
	return g
}

func TestSummarizeMeetsBudget(t *testing.T) {
	g := baGraph(t, 400, 3, 1)
	for _, ratio := range []float64{0.2, 0.5, 0.8} {
		res, err := Summarize(g, Config{BudgetRatio: ratio, Seed: 7})
		if err != nil {
			t.Fatalf("ratio %v: %v", ratio, err)
		}
		s := res.Summary
		if err := s.Validate(); err != nil {
			t.Fatalf("ratio %v: invalid summary: %v", ratio, err)
		}
		if got := s.SizeBits(); got > ratio*g.SizeBits()+1e-6 {
			t.Errorf("ratio %v: size %.0f bits exceeds budget %.0f", ratio, got, ratio*g.SizeBits())
		}
		if s.NumSupernodes() >= g.NumNodes() && ratio < 0.9 {
			t.Errorf("ratio %v: no supernodes merged (|S|=%d)", ratio, s.NumSupernodes())
		}
	}
}

func TestSummarizePersonalized(t *testing.T) {
	g := baGraph(t, 300, 3, 2)
	targets := []graph.NodeID{0, 1, 2}
	res, err := Summarize(g, Config{Targets: targets, Alpha: 1.5, BudgetRatio: 0.4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Summary.Validate(); err != nil {
		t.Fatalf("invalid summary: %v", err)
	}
	if res.Summary.SizeBits() > 0.4*g.SizeBits()+1e-6 {
		t.Error("budget exceeded")
	}
	if res.Iterations == 0 {
		t.Error("expected at least one iteration")
	}
}

func TestHugeBudgetKeepsIdentity(t *testing.T) {
	g := baGraph(t, 100, 2, 4)
	res, err := Summarize(g, Config{BudgetBits: 10 * g.SizeBits(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if s.NumSupernodes() != g.NumNodes() {
		t.Fatalf("|S| = %d, want |V| = %d (no merging needed)", s.NumSupernodes(), g.NumNodes())
	}
	if s.NumSuperedges() != int(g.NumEdges()) {
		t.Fatalf("|P| = %d, want |E| = %d", s.NumSuperedges(), g.NumEdges())
	}
	// Identity summary answers neighborhoods exactly.
	for u := 0; u < g.NumNodes(); u += 13 {
		got := s.Neighbors(graph.NodeID(u))
		want := g.Neighbors(graph.NodeID(u))
		if len(got) != len(want) {
			t.Fatalf("node %d: approximate neighborhood differs on identity summary", u)
		}
	}
}

func TestTwinNodesMergeExactly(t *testing.T) {
	// Complete bipartite K_{4,4}: all left nodes are twins, all right nodes
	// are twins. A tight budget must discover the 2-supernode summary whose
	// reconstruction is exact.
	b := graph.NewBuilder(8)
	for l := 0; l < 4; l++ {
		for r := 4; r < 8; r++ {
			b.AddEdge(graph.NodeID(l), graph.NodeID(r))
		}
	}
	g := b.Build()
	res, err := Summarize(g, Config{BudgetRatio: 0.2, Seed: 5, MaxIter: 30})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if err := s.Validate(); err != nil {
		t.Fatalf("invalid summary: %v", err)
	}
	if s.NumSupernodes() > 3 {
		t.Fatalf("|S| = %d, want <= 3 (twins should merge)", s.NumSupernodes())
	}
	// Reconstruction should preserve bipartite adjacency for some pairs.
	rec := s.Reconstruct()
	if !rec.HasEdge(0, 4) {
		t.Error("reconstruction lost the bipartite block")
	}
	if rec.HasEdge(0, 1) && s.NumSupernodes() == 2 {
		// left supernode must not carry a self-loop in the exact summary
		t.Error("reconstruction invented intra-left edges")
	}
}

func TestDeterminism(t *testing.T) {
	g := baGraph(t, 250, 3, 6)
	r1, err := Summarize(g, Config{BudgetRatio: 0.4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Summarize(g, Config{BudgetRatio: 0.4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Summary.NumSupernodes() != r2.Summary.NumSupernodes() ||
		r1.Summary.NumSuperedges() != r2.Summary.NumSuperedges() {
		t.Fatal("same seed produced different summaries")
	}
	for u := 0; u < g.NumNodes(); u++ {
		if r1.Summary.Supernode(graph.NodeID(u)) != r2.Summary.Supernode(graph.NodeID(u)) {
			t.Fatal("same seed produced different partitions")
		}
	}
}

func TestTraceCallback(t *testing.T) {
	g := baGraph(t, 200, 3, 8)
	var stats []IterStats
	_, err := Summarize(g, Config{
		BudgetRatio: 0.3,
		Seed:        9,
		Trace:       func(s IterStats) { stats = append(stats, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) == 0 {
		t.Fatal("trace never invoked")
	}
	if stats[0].Theta != 0.5 {
		t.Errorf("initial theta = %v, want 0.5", stats[0].Theta)
	}
	for i := 1; i < len(stats); i++ {
		if stats[i].Theta > stats[i-1].Theta {
			t.Errorf("adaptive theta increased: %v -> %v", stats[i-1].Theta, stats[i].Theta)
		}
		if stats[i].NumSuper > stats[i-1].NumSuper {
			t.Errorf("|S| increased across iterations")
		}
	}
}

func TestAbsoluteCostMode(t *testing.T) {
	g := baGraph(t, 200, 3, 10)
	res, err := Summarize(g, Config{BudgetRatio: 0.4, Seed: 11, CostMode: AbsoluteCost})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Summary.Validate(); err != nil {
		t.Fatalf("invalid summary under AbsoluteCost: %v", err)
	}
	if res.Summary.SizeBits() > 0.4*g.SizeBits()+1e-6 {
		t.Error("budget exceeded under AbsoluteCost")
	}
}

func TestConfigValidation(t *testing.T) {
	g := baGraph(t, 50, 2, 12)
	cases := []Config{
		{Alpha: 0.5},
		{Beta: -0.1},
		{Beta: 1.5},
		{MaxIter: -3},
		{BudgetRatio: -1},
		{Targets: []graph.NodeID{9999}},
		{MaxGroupSize: 1},
	}
	for i, cfg := range cases {
		if _, err := Summarize(g, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
}

func TestEvaluateMergeSymmetry(t *testing.T) {
	g := baGraph(t, 120, 3, 13)
	cfg, err := Config{BudgetRatio: 0.5, Seed: 1}.withDefaults(g)
	if err != nil {
		t.Fatal(err)
	}
	w := mustWeights(t, g, []graph.NodeID{0}, 1.5)
	e := newEngine(g, w, cfg)
	for trial := 0; trial < 50; trial++ {
		a := uint32(e.rng.Intn(g.NumNodes()))
		b := uint32(e.rng.Intn(g.NumNodes()))
		if a == b {
			continue
		}
		r1, a1 := e.evaluateMerge(a, b)
		r2, a2 := e.evaluateMerge(b, a)
		if math.Abs(r1-r2) > 1e-9 || math.Abs(a1-a2) > 1e-6 {
			t.Fatalf("evaluateMerge asymmetric: (%v,%v) vs (%v,%v)", r1, a1, r2, a2)
		}
	}
}

func TestEngineCountsStayConsistent(t *testing.T) {
	g := baGraph(t, 150, 3, 14)
	cfg, err := Config{BudgetRatio: 0.5, Seed: 2}.withDefaults(g)
	if err != nil {
		t.Fatal(err)
	}
	w := mustWeights(t, g, nil, 1)
	e := newEngine(g, w, cfg)
	for trial := 0; trial < 60; trial++ {
		slots := e.aliveSlots()
		if len(slots) < 2 {
			break
		}
		a := slots[e.rng.Intn(len(slots))]
		b := slots[e.rng.Intn(len(slots))]
		if a == b {
			continue
		}
		e.performMerge(a, b)
		// Recount |P| from scratch and compare; every list must be strictly
		// sorted and mirrored by its neighbors' lists.
		count := 0
		for x, sx := range e.sedges {
			if e.members[x] == nil {
				if len(sx) != 0 {
					t.Fatal("dead slot retains superedges")
				}
				continue
			}
			for i, y := range sx {
				if i > 0 && sx[i-1] >= y {
					t.Fatalf("superedges of slot %d not strictly sorted: %v", x, sx)
				}
				if !e.alive(y) {
					t.Fatalf("superedge to dead slot %d", y)
				}
				if !e.hasSuperedge(y, uint32(x)) {
					t.Fatalf("superedge %d-%d has no mirror", x, y)
				}
				if y >= uint32(x) {
					count++
				}
			}
		}
		if count != e.numP {
			t.Fatalf("numP = %d but counted %d", e.numP, count)
		}
		if len(e.aliveSlots()) != e.numSuper {
			t.Fatalf("numSuper = %d but %d alive", e.numSuper, len(e.aliveSlots()))
		}
	}
	s := e.buildSummary()
	if err := s.Validate(); err != nil {
		t.Fatalf("summary after random merges invalid: %v", err)
	}
}

func TestSparsifyHitsTightBudget(t *testing.T) {
	// MaxIter 2 leaves merging far from the budget; sparsification must
	// close the gap by dropping superedges.
	g := baGraph(t, 200, 3, 15)
	budget := 0.35 * g.SizeBits()
	res, err := Summarize(g, Config{BudgetBits: budget, Seed: 3, MaxIter: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.BudgetMet {
		t.Fatalf("budget not met: size %.0f > %.0f", res.Summary.SizeBits(), budget)
	}
	if res.Summary.SizeBits() > budget+1e-6 {
		t.Fatalf("size %.0f exceeds budget %.0f", res.Summary.SizeBits(), budget)
	}
	if res.DroppedSuperedges == 0 {
		t.Error("expected sparsification to drop superedges with MaxIter=2")
	}
}

func TestUnreachableBudgetReported(t *testing.T) {
	// |V|·log2|S| is a hard floor: with one iteration and a near-zero
	// budget, the budget cannot be met and the result must say so.
	g := baGraph(t, 200, 3, 16)
	res, err := Summarize(g, Config{BudgetBits: 1, Seed: 4, MaxIter: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.BudgetMet {
		t.Fatal("1-bit budget reported as met")
	}
	if res.Summary.NumSuperedges() != 0 {
		t.Error("sparsification should have dropped every superedge chasing an unreachable budget")
	}
}

func TestRemoveSlot(t *testing.T) {
	g := []uint32{5, 7, 9, 11}
	removeSlot(&g, 7)
	if len(g) != 3 {
		t.Fatalf("len = %d, want 3", len(g))
	}
	for _, x := range g {
		if x == 7 {
			t.Fatal("slot 7 still present")
		}
	}
	removeSlot(&g, 999) // absent: no-op
	if len(g) != 3 {
		t.Fatal("removing absent slot changed group")
	}
}

func mustWeights(t *testing.T, g *graph.Graph, targets []graph.NodeID, alpha float64) *weights.Weights {
	t.Helper()
	w, err := weights.New(g, targets, alpha)
	if err != nil {
		t.Fatal(err)
	}
	return w
}
