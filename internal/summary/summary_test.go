package summary

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pegasus/internal/graph"
)

// fixture: 5 nodes in 3 supernodes A={0,1}, B={2,3}, C={4};
// superedges {A,B}, {A,A} (self-loop), {B,C}.
func fixture() *Summary {
	return New([]uint32{0, 0, 1, 1, 2}, [][]uint32{{0, 1}, {2}, nil}, nil)
}

func TestNew(t *testing.T) {
	// 7 nodes in 4 supernodes A={0,3}, B={1,2,5}, C={4}, D={6}; superedges
	// {A,A} (self-loop), {A,B}, {A,C}, {B,C}, {C,C}; D has none.
	superOf := []uint32{0, 1, 1, 0, 2, 1, 3}
	upper := [][]uint32{{0, 1, 2}, {2}, {2}, nil}
	t.Run("unweighted", func(t *testing.T) {
		s := New(slices.Clone(superOf), upper, nil)
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		if s.NumNodes() != 7 || s.NumSupernodes() != 4 || s.NumSuperedges() != 5 {
			t.Fatalf("shape %v, want |V|=7 |S|=4 |P|=5 (self-loops once)", s)
		}
		wantMembers := [][]graph.NodeID{{0, 3}, {1, 2, 5}, {4}, {6}}
		wantNbr := [][]uint32{{0, 1, 2}, {0, 2}, {0, 1, 2}, nil}
		for a := range uint32(4) {
			if got := s.Members(a); !slices.Equal(got, wantMembers[a]) {
				t.Errorf("Members(%d) = %v, want %v", a, got, wantMembers[a])
			}
			nbr, wts := s.SuperNeighbors(a)
			if !slices.Equal(nbr, wantNbr[a]) {
				t.Errorf("SuperNeighbors(%d) = %v, want %v", a, nbr, wantNbr[a])
			}
			for _, w := range wts {
				if w != 1 {
					t.Errorf("SuperNeighbors(%d) weights = %v, want all 1", a, wts)
				}
			}
		}
		if s.Weighted() || s.MaxWeight() != 1 {
			t.Errorf("Weighted=%v MaxWeight=%v, want false and 1", s.Weighted(), s.MaxWeight())
		}
	})
	t.Run("all-1 weights", func(t *testing.T) {
		s := New(slices.Clone(superOf), upper, [][]float64{{1, 1, 1}, {1}, {1}, nil})
		if s.Weighted() || s.MaxWeight() != 1 {
			t.Errorf("Weighted=%v MaxWeight=%v, want an unweighted summary", s.Weighted(), s.MaxWeight())
		}
	})
	t.Run("weighted", func(t *testing.T) {
		s := New(slices.Clone(superOf), upper, [][]float64{{0.5, 3, 1}, {0.25}, {2}, nil})
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		if !s.Weighted() || s.MaxWeight() != 3 {
			t.Fatalf("Weighted=%v MaxWeight=%v, want true and 3", s.Weighted(), s.MaxWeight())
		}
		// Each weight lands on both endpoints' lists, position for position.
		for _, c := range []struct {
			a    uint32
			want []float64
		}{{0, []float64{0.5, 3, 1}}, {1, []float64{3, 0.25}}, {2, []float64{1, 0.25, 2}}} {
			if _, wts := s.SuperNeighbors(c.a); !slices.Equal(wts, c.want) {
				t.Errorf("weights of %d = %v, want %v", c.a, wts, c.want)
			}
		}
	})
	t.Run("empty", func(t *testing.T) {
		s := New(nil, nil, nil)
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		if s.NumNodes() != 0 || s.NumSupernodes() != 0 || s.NumSuperedges() != 0 || s.MaxWeight() != 0 {
			t.Fatalf("empty summary %v, MaxWeight %v", s, s.MaxWeight())
		}
	})
}

func TestCounts(t *testing.T) {
	s := fixture()
	if s.NumNodes() != 5 {
		t.Fatalf("|V| = %d, want 5", s.NumNodes())
	}
	if s.NumSupernodes() != 3 {
		t.Fatalf("|S| = %d, want 3", s.NumSupernodes())
	}
	if s.NumSuperedges() != 3 {
		t.Fatalf("|P| = %d, want 3", s.NumSuperedges())
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if s.Weighted() {
		t.Fatal("unit weights must not mark summary weighted")
	}
}

func TestMembershipAndMembers(t *testing.T) {
	s := fixture()
	if s.Supernode(0) != s.Supernode(1) {
		t.Error("nodes 0,1 should share a supernode")
	}
	if s.Supernode(0) == s.Supernode(2) {
		t.Error("nodes 0,2 should not share a supernode")
	}
	a := s.Supernode(0)
	ms := s.Members(a)
	if len(ms) != 2 || ms[0] != 0 || ms[1] != 1 {
		t.Fatalf("Members(A) = %v, want [0 1]", ms)
	}

	// Labels shuffled across the nodes, renumbered by FromPartitionDensity:
	// each member list must still be ascending, and the lists must
	// partition V.
	rng := rand.New(rand.NewSource(1))
	superOf := make([]uint32, 60)
	edges := make([]graph.Edge, len(superOf))
	for u := range superOf {
		superOf[u] = 1000*uint32(rng.Intn(7)) + 3
		edges[u] = graph.Edge{U: graph.NodeID(u), V: graph.NodeID((u + 1) % len(superOf))}
	}
	s = FromPartitionDensity(graph.FromEdges(len(superOf), edges), superOf)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for a := range uint32(s.NumSupernodes()) {
		ms := s.Members(a)
		if !slices.IsSorted(ms) {
			t.Errorf("Members(%d) = %v, not ascending", a, ms)
		}
		for _, u := range ms {
			if s.Supernode(u) != a {
				t.Errorf("node %d listed in supernode %d, mapped to %d", u, a, s.Supernode(u))
			}
		}
		seen += len(ms)
	}
	if seen != len(superOf) {
		t.Errorf("member lists hold %d nodes, want %d", seen, len(superOf))
	}
}

func TestHasSuperedge(t *testing.T) {
	s := fixture()
	a, b, c := s.Supernode(0), s.Supernode(2), s.Supernode(4)
	if _, ok := s.HasSuperedge(a, b); !ok {
		t.Error("missing {A,B}")
	}
	if _, ok := s.HasSuperedge(b, a); !ok {
		t.Error("missing symmetric {B,A}")
	}
	if _, ok := s.HasSuperedge(a, a); !ok {
		t.Error("missing self-loop {A,A}")
	}
	if _, ok := s.HasSuperedge(a, c); ok {
		t.Error("unexpected {A,C}")
	}
}

func TestNeighborsAlg4(t *testing.T) {
	s := fixture()
	// N̂(0): A has self-loop → member 1; A-B → members 2,3. Total {1,2,3}.
	got := s.Neighbors(0)
	want := []graph.NodeID{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("Neighbors(0) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors(0) = %v, want %v", got, want)
		}
	}
	// N̂(4): C only adjacent to B → {2,3}.
	got4 := s.Neighbors(4)
	if len(got4) != 2 || got4[0] != 2 || got4[1] != 3 {
		t.Fatalf("Neighbors(4) = %v, want [2 3]", got4)
	}
	// Degrees match.
	if d := s.ReconstructedDegree(0); d != 3 {
		t.Fatalf("ReconstructedDegree(0) = %d, want 3", d)
	}
	if d := s.ReconstructedDegree(4); d != 2 {
		t.Fatalf("ReconstructedDegree(4) = %d, want 2", d)
	}
	// Even nodes E and odd nodes O, superedges {E,E} and {E,O}: the member
	// blocks of N̂(0) interleave, and the result must still be ascending.
	superOf := make([]uint32, 40)
	want = nil
	for u := range superOf {
		superOf[u] = uint32(u % 2)
		if u > 0 {
			want = append(want, graph.NodeID(u))
		}
	}
	s = New(superOf, [][]uint32{{0, 1}, nil}, nil)
	if got := s.Neighbors(0); !slices.Equal(got, want) {
		t.Fatalf("interleaved Neighbors(0) = %v, want %v", got, want)
	}
}

func TestWeightedNeighbors(t *testing.T) {
	s := New([]uint32{0, 0, 1, 1}, [][]uint32{{0, 1}, nil}, [][]float64{{2, 0.5}, nil})
	if !s.Weighted() {
		t.Fatal("summary should be weighted")
	}
	wn := s.WeightedNeighbors(0)
	if len(wn) != 3 { // member 1 via self-loop, members 2,3 via cross edge
		t.Fatalf("WeightedNeighbors(0) = %v, want 3 entries", wn)
	}
	var self, cross float64
	for _, x := range wn {
		if x.Node == 1 {
			self = x.Weight
		} else {
			cross = x.Weight
		}
	}
	if self != 2 || cross != 0.5 {
		t.Fatalf("weights self=%v cross=%v, want 2, 0.5", self, cross)
	}
	wd := s.WeightedReconstructedDegree(0)
	if math.Abs(wd-(2*1+0.5*2)) > 1e-12 {
		t.Fatalf("WeightedReconstructedDegree(0) = %v, want 3", wd)
	}
}

func TestReconstruct(t *testing.T) {
	s := fixture()
	g := s.Reconstruct()
	// Expect edges: {0,1} (self-loop on A), A×B = {0,2},{0,3},{1,2},{1,3},
	// B×C = {2,4},{3,4}. Total 7.
	if g.NumEdges() != 7 {
		t.Fatalf("|Ê| = %d, want 7", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 3) || !g.HasEdge(2, 4) {
		t.Fatal("reconstruction missing expected edges")
	}
	if g.HasEdge(2, 3) {
		t.Fatal("no self-loop on B: members of B must not be adjacent")
	}
	// Alg. 4 neighbors must match the reconstruction exactly.
	for u := 0; u < 5; u++ {
		got := s.Neighbors(graph.NodeID(u))
		want := g.Neighbors(graph.NodeID(u))
		if len(got) != len(want) {
			t.Fatalf("node %d: Neighbors=%v, reconstruction=%v", u, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("node %d: Neighbors=%v, reconstruction=%v", u, got, want)
			}
		}
	}
}

func TestIdentitySummaryIsExact(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	b.AddEdge(4, 5)
	g := b.Build()
	s := Identity(g)
	if s.NumSupernodes() != g.NumNodes() {
		t.Fatalf("|S| = %d, want |V| = %d", s.NumSupernodes(), g.NumNodes())
	}
	if s.NumSuperedges() != int(g.NumEdges()) {
		t.Fatalf("|P| = %d, want |E| = %d", s.NumSuperedges(), g.NumEdges())
	}
	for u := 0; u < g.NumNodes(); u++ {
		got := s.Neighbors(graph.NodeID(u))
		want := g.Neighbors(graph.NodeID(u))
		if len(got) != len(want) {
			t.Fatalf("identity summary changed neighborhood of %d", u)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("identity summary changed neighborhood of %d", u)
			}
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestSizeBits(t *testing.T) {
	s := fixture()
	// Eq. (3): 2|P|log2|S| + |V|log2|S| = (6+5)·log2(3).
	want := 11 * math.Log2(3)
	if got := s.SizeBits(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("SizeBits = %v, want %v", got, want)
	}
	// Unweighted AutoSizeBits == SizeBits.
	if s.AutoSizeBits() != s.SizeBits() {
		t.Fatal("AutoSizeBits should dispatch to SizeBits for unweighted")
	}
}

func TestWeightedSizeBits(t *testing.T) {
	s := New([]uint32{0, 0, 1, 1}, [][]uint32{{1}, nil}, [][]float64{{4}, nil})
	// |P|(2log2|S| + log2 4) + |V| log2|S| = 1*(2*1+2) + 4*1 = 8.
	if got := s.WeightedSizeBits(); math.Abs(got-8) > 1e-9 {
		t.Fatalf("WeightedSizeBits = %v, want 8", got)
	}
	if s.AutoSizeBits() != s.WeightedSizeBits() {
		t.Fatal("AutoSizeBits should dispatch to WeightedSizeBits")
	}
}

func TestCompressionRatio(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	s := Identity(g)
	r := s.CompressionRatio(g)
	if r <= 0 {
		t.Fatalf("ratio = %v, want > 0", r)
	}
}
