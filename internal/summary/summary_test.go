package summary

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"pegasus/internal/graph"
)

// fixture: 5 nodes in 3 supernodes A={0,1}, B={2,3}, C={4};
// superedges {A,B}, {A,A} (self-loop), {B,C}.
func fixture() *Summary {
	superOf := []uint32{10, 10, 20, 20, 30} // arbitrary labels
	b := NewBuilder(superOf)
	b.AddSuperedge(10, 20, 1)
	b.AddSuperedge(10, 10, 1)
	b.AddSuperedge(20, 30, 1)
	return b.Build()
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

	// Labels shuffled across the nodes: each member list must still be
	// ascending, and the lists must partition V.
	rng := rand.New(rand.NewSource(1))
	superOf := make([]uint32, 60)
	for u := range superOf {
		superOf[u] = 1000*uint32(rng.Intn(7)) + 3
	}
	s = NewBuilder(superOf).Build()
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
}

func TestWeightedNeighbors(t *testing.T) {
	superOf := []uint32{0, 0, 1, 1}
	b := NewBuilder(superOf)
	b.AddSuperedge(0, 1, 0.5)
	b.AddSuperedge(0, 0, 2)
	s := b.Build()
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
	superOf := []uint32{0, 0, 1, 1}
	b := NewBuilder(superOf)
	b.AddSuperedge(0, 1, 4)
	s := b.Build()
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

func TestRoundTrip(t *testing.T) {
	s := fixture()
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	s2, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if err := s2.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if s2.NumNodes() != s.NumNodes() || s2.NumSupernodes() != s.NumSupernodes() || s2.NumSuperedges() != s.NumSuperedges() {
		t.Fatal("round trip changed summary shape")
	}
	// Behavior-level equality: same approximate neighborhoods.
	for u := 0; u < s.NumNodes(); u++ {
		a, b := s.Neighbors(graph.NodeID(u)), s2.Neighbors(graph.NodeID(u))
		if len(a) != len(b) {
			t.Fatalf("node %d neighborhood changed", u)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d neighborhood changed", u)
			}
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	s := fixture()
	path := filepath.Join(t.TempDir(), "s.bin")
	if err := s.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	s2, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if s2.NumSuperedges() != s.NumSuperedges() {
		t.Fatal("file round trip changed summary")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("XXXX0123456789"))); err == nil {
		t.Error("want error for bad magic")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("want error for empty input")
	}
}

func TestBuilderPanics(t *testing.T) {
	b := NewBuilder([]uint32{0, 1})
	assertPanics(t, func() { b.AddSuperedge(0, 1, 0) })  // zero weight
	assertPanics(t, func() { b.AddSuperedge(0, 99, 1) }) // unknown label
	assertPanics(t, func() { b.DenseID(77) })            // unknown label
}

func assertPanics(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fn()
}
