package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pegasus/internal/gen"
	"pegasus/internal/graph"
	"pegasus/internal/summary"
	"pegasus/internal/weights"
)

func TestSMAPE(t *testing.T) {
	got, err := SMAPE([]float64{1, 2, 0}, []float64{1, 2, 0})
	if err != nil || got != 0 {
		t.Fatalf("identical vectors: SMAPE = %v, err = %v", got, err)
	}
	// Disjoint support: every term is 1.
	got, err = SMAPE([]float64{1, 0}, []float64{0, 1})
	if err != nil || got != 1 {
		t.Fatalf("disjoint vectors: SMAPE = %v, want 1", got)
	}
	// Mixed case: |1-3|/(1+3) = 0.5, second term 0 -> mean 0.25.
	got, _ = SMAPE([]float64{1, 5}, []float64{3, 5})
	if math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("SMAPE = %v, want 0.25", got)
	}
	if _, err := SMAPE([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if got, _ := SMAPE(nil, nil); got != 0 {
		t.Error("empty SMAPE should be 0")
	}
}

func TestSpearmanPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{10, 20, 30, 40, 50}
	got, err := Spearman(x, y)
	if err != nil || math.Abs(got-1) > 1e-12 {
		t.Fatalf("Spearman = %v, want 1", got)
	}
	rev := []float64{50, 40, 30, 20, 10}
	got, _ = Spearman(x, rev)
	if math.Abs(got+1) > 1e-12 {
		t.Fatalf("Spearman = %v, want -1", got)
	}
}

func TestSpearmanTiesAndConstants(t *testing.T) {
	// Constant vector: undefined correlation reported as 0.
	got, _ := Spearman([]float64{1, 1, 1}, []float64{1, 2, 3})
	if got != 0 {
		t.Fatalf("Spearman with constant x = %v, want 0", got)
	}
	// Ties: ranks averaged; correlation still well defined.
	got, _ = Spearman([]float64{1, 1, 2, 3}, []float64{1, 1, 2, 3})
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("Spearman with matched ties = %v, want 1", got)
	}
}

func TestRanks(t *testing.T) {
	r := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", r, want)
		}
	}
}

func TestSpearmanInvariantToMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(50)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		s1, _ := Spearman(x, y)
		// Apply strictly increasing transforms; Spearman must not change.
		x2 := make([]float64, n)
		y2 := make([]float64, n)
		for i := range x {
			x2[i] = math.Exp(x[i])
			y2[i] = y[i]*3 + 7
		}
		s2, _ := Spearman(x2, y2)
		return math.Abs(s1-s2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// bruteForceError computes Eq. (1) by materializing Ĝ — the reference for
// the O(|E|+|P|) evaluator.
func bruteForceError(g *graph.Graph, s *summary.Summary, w *weights.Weights) float64 {
	rec := s.Reconstruct()
	n := g.NumNodes()
	re := 0.0
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			a := 0.0
			if g.HasEdge(graph.NodeID(u), graph.NodeID(v)) {
				a = 1
			}
			ahat := 0.0
			if rec.HasEdge(graph.NodeID(u), graph.NodeID(v)) {
				ahat = 1
			}
			re += w.Pair(graph.NodeID(u), graph.NodeID(v)) * math.Abs(a-ahat)
		}
	}
	return re
}

func TestPersonalizedErrorMatchesBruteForce(t *testing.T) {
	g := gen.BarabasiAlbert(40, 2, 3)
	// Build a deliberately lossy summary: group nodes mod 8.
	superOf := make([]uint32, g.NumNodes())
	for u := range superOf {
		superOf[u] = uint32(u % 8)
	}
	s := summary.New(superOf, [][]uint32{{1}, nil, {3}, nil, {4}, {7}, nil, nil}, nil)

	for _, tc := range []struct {
		targets []graph.NodeID
		alpha   float64
	}{
		{nil, 1},
		{[]graph.NodeID{0}, 1.5},
		{[]graph.NodeID{3, 17}, 2},
	} {
		w, err := weights.New(g, tc.targets, tc.alpha)
		if err != nil {
			t.Fatal(err)
		}
		fast := PersonalizedError(g, s, w)
		brute := bruteForceError(g, s, w)
		if math.Abs(fast-brute) > 1e-6*(1+brute) {
			t.Fatalf("targets %v alpha %v: fast %v != brute %v", tc.targets, tc.alpha, fast, brute)
		}
	}
}

func TestPersonalizedErrorZeroOnIdentity(t *testing.T) {
	g := gen.BarabasiAlbert(50, 2, 4)
	s := summary.Identity(g)
	w, _ := weights.New(g, []graph.NodeID{1}, 1.5)
	if got := PersonalizedError(g, s, w); got > 1e-9 {
		t.Fatalf("identity summary error = %v, want 0", got)
	}
	if got := ReconstructionError(g, s); got > 1e-9 {
		t.Fatalf("identity reconstruction error = %v, want 0", got)
	}
}

func TestReconstructionErrorCountsFlips(t *testing.T) {
	// Graph: single edge {0,1} over 3 nodes. Summary: all in one supernode
	// with a self-loop -> reconstruction is the triangle. Errors: pairs
	// {0,2},{1,2} are wrongly present = 2 unordered flips = 4 in the
	// ordered convention.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	g := b.Build()
	s := summary.New([]uint32{0, 0, 0}, [][]uint32{{0}}, nil)
	if got := ReconstructionError(g, s); math.Abs(got-4) > 1e-9 {
		t.Fatalf("error = %v, want 4 (ordered convention)", got)
	}
}
