package graph

import (
	"math"
	"testing"
)

func TestCountTriangles(t *testing.T) {
	// Triangle + pendant (testGraph): exactly 1 triangle.
	g := testGraph(t)
	if got := CountTriangles(g); got != 1 {
		t.Fatalf("triangles = %d, want 1", got)
	}
	// K4 has 4 triangles.
	b := NewBuilder(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(NodeID(i), NodeID(j))
		}
	}
	if got := CountTriangles(b.Build()); got != 4 {
		t.Fatalf("K4 triangles = %d, want 4", got)
	}
	// A tree has none.
	tb := NewBuilder(5)
	tb.AddEdge(0, 1)
	tb.AddEdge(0, 2)
	tb.AddEdge(2, 3)
	tb.AddEdge(2, 4)
	if got := CountTriangles(tb.Build()); got != 0 {
		t.Fatalf("tree triangles = %d, want 0", got)
	}
}

func TestComputeStats(t *testing.T) {
	g := testGraph(t) // triangle 0-1-2 + pendant 3
	s := ComputeStats(g)
	if s.Nodes != 4 || s.Edges != 4 {
		t.Fatalf("stats shape wrong: %+v", s)
	}
	if s.MinDegree != 1 || s.MaxDegree != 3 {
		t.Fatalf("degrees wrong: %+v", s)
	}
	if s.AvgDegree != 2 || s.MedDegree != 2 {
		t.Fatalf("avg/median wrong: %+v", s)
	}
	if s.Triangles != 1 {
		t.Fatalf("triangles = %d, want 1", s.Triangles)
	}
	// Wedges: deg 2,2,3,1 -> 1+1+3+0 = 5; transitivity = 3/5.
	if math.Abs(s.GlobalCC-0.6) > 1e-12 {
		t.Fatalf("GlobalCC = %v, want 0.6", s.GlobalCC)
	}
	if s.Components != 1 {
		t.Fatalf("components = %d, want 1", s.Components)
	}
	empty := ComputeStats(NewBuilder(0).Build())
	if empty.Nodes != 0 {
		t.Fatal("empty stats wrong")
	}
}
