package core

import (
	"context"
	"testing"

	"pegasus/internal/gen"
	"pegasus/internal/graph"
	"pegasus/internal/weights"
)

func newTestEngine(t *testing.T, g *graph.Graph, cfg Config) *engine {
	t.Helper()
	cfg, err := cfg.withDefaults(g)
	if err != nil {
		t.Fatal(err)
	}
	w, err := weights.New(g, cfg.Targets, cfg.Alpha)
	if err != nil {
		t.Fatal(err)
	}
	return newEngine(g, w, cfg)
}

// alive reports whether slot a currently denotes a supernode.
func (e *engine) alive(a uint32) bool { return e.members[a] != nil }

func TestCandidateGroupsPartitionAliveSlots(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 1)
	e := newTestEngine(t, g, Config{Seed: 2})
	groups := e.candidateGroups(context.Background(), 1)
	seen := map[uint32]int{}
	for _, grp := range groups {
		if len(grp) < 2 {
			t.Fatal("singleton group emitted")
		}
		if len(grp) > e.cfg.MaxGroupSize {
			t.Fatalf("group size %d exceeds cap %d", len(grp), e.cfg.MaxGroupSize)
		}
		for _, a := range grp {
			seen[a]++
			if !e.alive(a) {
				t.Fatalf("dead slot %d in group", a)
			}
		}
	}
	//lint:ordered membership check only: each slot is tested independently against its own count
	for a, c := range seen {
		if c > 1 {
			t.Fatalf("slot %d in %d groups", a, c)
		}
	}
	if len(groups) < 2 {
		t.Fatalf("expected multiple candidate groups, got %d", len(groups))
	}
}

func TestTwinsShareAGroup(t *testing.T) {
	// In K_{3,3} all left nodes have identical closed neighborhoods except
	// for their own ID; shingles use the closed neighborhood, so twins
	// (identical open neighborhoods, non-adjacent) agree on min over N(u)
	// but may differ via f(u) itself. Build true twins with a shared anchor:
	// star with two leaf-twins.
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	b.AddEdge(3, 4)
	g := b.Build()
	e := newTestEngine(t, g, Config{Seed: 3})
	together := 0
	const iters = 20
	for it := 1; it <= iters; it++ {
		groups := e.candidateGroups(context.Background(), it)
		for _, grp := range groups {
			has1, has2 := false, false
			for _, a := range grp {
				if a == 1 {
					has1 = true
				}
				if a == 2 {
					has2 = true
				}
			}
			if has1 && has2 {
				together++
			}
		}
	}
	// Leaves 1 and 2 share N(u)∪{u} ⊇ {0}; their shingles agree whenever
	// the anchor hashes lowest, i.e. with probability >= 1/3 per draw;
	// across 20 iterations they must co-occur at least a few times.
	if together < 3 {
		t.Fatalf("twin leaves grouped together only %d/%d iterations", together, iters)
	}
}

func TestCandidateGroupsChangeAcrossIterations(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 4)
	e := newTestEngine(t, g, Config{Seed: 5})
	g1 := e.candidateGroups(context.Background(), 1)
	g2 := e.candidateGroups(context.Background(), 2)
	// Different hash functions should produce a different grouping with
	// overwhelming probability.
	if len(g1) == len(g2) {
		same := true
		for i := range g1 {
			if len(g1[i]) != len(g2[i]) {
				same = false
				break
			}
		}
		if same {
			// Same shape is possible; compare membership of first group.
			m := map[uint32]bool{}
			for _, a := range g1[0] {
				m[a] = true
			}
			allSame := true
			for _, a := range g2[0] {
				if !m[a] {
					allSame = false
					break
				}
			}
			if allSame && len(g1[0]) == len(g2[0]) {
				t.Log("warning: identical first group across iterations (possible but unlikely)")
			}
		}
	}
}

func TestGroupSizeCapRespected(t *testing.T) {
	// A graph of many twins: grid of disconnected 2-cliques hashed together
	// would exceed the cap; random chopping must bound group size.
	b := graph.NewBuilder(0)
	for i := 0; i < 600; i++ {
		b.AddEdge(graph.NodeID(2*i), graph.NodeID(2*i+1))
	}
	g := b.Build()
	e := newTestEngine(t, g, Config{Seed: 6, MaxGroupSize: 50, MaxSplitDepth: 2})
	for _, grp := range e.candidateGroups(context.Background(), 1) {
		if len(grp) > 50 {
			t.Fatalf("group of size %d exceeds cap 50", len(grp))
		}
	}
}

func TestSparsifyDropsLowMassFirst(t *testing.T) {
	// Two supernode pairs: one covering many edges, one covering a single
	// low-weight edge. Sparsifying by one superedge must drop the light one.
	b := graph.NewBuilder(6)
	// dense pair: {0,1} x {2,3} complete
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	b.AddEdge(1, 2)
	b.AddEdge(1, 3)
	// light pair: 4-5 single edge
	b.AddEdge(4, 5)
	g := b.Build()
	e := newTestEngine(t, g, Config{Seed: 7})
	// Merge into supernodes {0,1}, {2,3}, {4}, {5} manually.
	e.performMerge(0, 1)
	e.performMerge(2, 3)
	if !e.hasSuperedge(0, 2) {
		t.Fatal("expected superedge between merged blocks")
	}
	if !e.hasSuperedge(4, 5) {
		t.Fatal("expected superedge on the light pair")
	}
	// Budget forcing exactly one drop: current size minus epsilon.
	target := e.sizeBits() - 0.1
	dropped := e.sparsify(target)
	if dropped != 1 {
		t.Fatalf("dropped %d superedges, want 1", dropped)
	}
	if !e.hasSuperedge(0, 2) {
		t.Fatal("dense superedge was dropped before the light one")
	}
	if e.hasSuperedge(4, 5) {
		// good: light one dropped
	} else if e.hasSuperedge(0, 0) || e.hasSuperedge(2, 2) {
		t.Fatal("unexpected self-loop dropped instead")
	}
}
