package weights

import (
	"math"
	"testing"
	"testing/quick"

	"pegasus/internal/gen"
	"pegasus/internal/graph"
)

func path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	return b.Build()
}

func TestUniformWhenNoTargets(t *testing.T) {
	g := path(5)
	w, err := New(g, nil, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	for u, p := range w.Pi {
		if p != 1 {
			t.Fatalf("Pi[%d] = %v, want 1", u, p)
		}
	}
	if w.Z != 1 {
		t.Fatalf("Z = %v, want 1", w.Z)
	}
}

func TestUniformWhenAlphaOne(t *testing.T) {
	g := path(5)
	w, err := New(g, []graph.NodeID{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range w.Pi {
		if p != 1 {
			t.Fatal("alpha=1 must give uniform weights")
		}
	}
}

func TestPersonalizedDecay(t *testing.T) {
	g := path(5)
	alpha := 2.0
	w, err := New(g, []graph.NodeID{0}, alpha)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 5; u++ {
		want := math.Pow(alpha, -float64(u))
		if math.Abs(w.Pi[u]-want) > 1e-12 {
			t.Errorf("Pi[%d] = %v, want %v", u, w.Pi[u], want)
		}
		if w.Distance(graph.NodeID(u)) != int32(u) {
			t.Errorf("Distance(%d) = %d, want %d", u, w.Distance(graph.NodeID(u)), u)
		}
	}
}

func TestMultiTargetUsesClosest(t *testing.T) {
	g := path(5)
	w, err := New(g, []graph.NodeID{0, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantD := []int32{0, 1, 2, 1, 0}
	for u, d := range wantD {
		if w.Distance(graph.NodeID(u)) != d {
			t.Errorf("Distance(%d) = %d, want %d", u, w.Distance(graph.NodeID(u)), d)
		}
	}
}

func TestAverageWeightIsOne(t *testing.T) {
	// Z must normalize the mean of W_uv over ordered pairs u != v to 1.
	g := gen.BarabasiAlbert(60, 2, 3)
	w, err := New(g, []graph.NodeID{0, 7}, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	var sum float64
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				sum += w.Pair(graph.NodeID(u), graph.NodeID(v))
			}
		}
	}
	mean := sum / float64(n*(n-1))
	if math.Abs(mean-1) > 1e-9 {
		t.Fatalf("mean weight = %v, want 1", mean)
	}
}

func TestDisconnectedNodesGetFiniteWeight(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1) // nodes 2,3 isolated
	g := b.Build()
	w, err := New(g, []graph.NodeID{0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if w.Pi[2] <= 0 || math.IsInf(w.Pi[2], 0) || math.IsNaN(w.Pi[2]) {
		t.Fatalf("disconnected Pi = %v, want positive finite", w.Pi[2])
	}
	if w.Pi[2] >= w.Pi[1] {
		t.Fatalf("disconnected node should weigh less than a reached node")
	}
	if w.Distance(2) != graph.Unreached {
		t.Fatalf("Distance(disconnected) = %d, want Unreached", w.Distance(2))
	}
}

func TestInvalidInputs(t *testing.T) {
	g := path(3)
	if _, err := New(g, []graph.NodeID{0}, 0.5); err == nil {
		t.Error("want error for alpha < 1")
	}
	for _, alpha := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := New(g, []graph.NodeID{0}, alpha); err == nil {
			t.Errorf("want error for alpha %v", alpha)
		}
	}
	if _, err := New(g, []graph.NodeID{99}, 1.5); err == nil {
		t.Error("want error for out-of-range target")
	}
}

func TestHigherAlphaMoreConcentrated(t *testing.T) {
	g := gen.BarabasiAlbert(200, 2, 9)
	w1, _ := New(g, []graph.NodeID{0}, 1.25)
	w2, _ := New(g, []graph.NodeID{0}, 2)
	// Ratio of close weight to far weight grows with alpha.
	var farNode graph.NodeID
	maxD := int32(-1)
	for u := 0; u < g.NumNodes(); u++ {
		if d := w1.Distance(graph.NodeID(u)); d > maxD {
			maxD = d
			farNode = graph.NodeID(u)
		}
	}
	r1 := w1.Pi[0] / w1.Pi[farNode]
	r2 := w2.Pi[0] / w2.Pi[farNode]
	if r2 <= r1 {
		t.Fatalf("alpha=2 concentration %v not greater than alpha=1.25 %v", r2, r1)
	}
}

func TestUniformConstructor(t *testing.T) {
	w := Uniform(10)
	if len(w.Pi) != 10 || w.Z != 1 || w.Alpha != 1 {
		t.Fatal("Uniform misconfigured")
	}
	if w.Pair(0, 1) != 1 {
		t.Fatal("uniform pair weight must be 1")
	}
}

func TestPropertyPairSymmetricPositive(t *testing.T) {
	g := gen.BarabasiAlbert(80, 2, 5)
	w, err := New(g, []graph.NodeID{3, 11}, 1.75)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint16) bool {
		u := graph.NodeID(int(a) % g.NumNodes())
		v := graph.NodeID(int(b) % g.NumNodes())
		p := w.Pair(u, v)
		return p > 0 && p == w.Pair(v, u)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
