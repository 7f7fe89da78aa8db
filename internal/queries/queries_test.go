package queries

import (
	"math"
	"math/rand"
	"testing"

	"pegasus/internal/core"
	"pegasus/internal/gen"
	"pegasus/internal/graph"
	"pegasus/internal/summary"
)

func approxEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

// randomSummary summarizes a random BA graph at the given ratio; exercised
// summaries have non-trivial supernodes and self-loops.
func randomSummary(t *testing.T, seed int64, ratio float64) (*graph.Graph, *summary.Summary) {
	t.Helper()
	g := gen.BarabasiAlbert(150, 3, seed)
	res, err := core.Summarize(g, core.Config{BudgetRatio: ratio, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g, res.Summary
}

func TestRWRIsStochastic(t *testing.T) {
	g := gen.BarabasiAlbert(100, 2, 1)
	r, err := GraphRWR(g, 0, RWRConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, x := range r {
		if x < 0 {
			t.Fatal("negative RWR score")
		}
		sum += x
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("RWR scores sum to %v, want 1", sum)
	}
}

func TestRWRLocality(t *testing.T) {
	// With a strong restart probability, RWR mass concentrates near the
	// query node: interior path nodes decay monotonically with distance.
	// (With a weak restart the stationary distribution is degree-dominated,
	// so the endpoint comparison is intentionally excluded.)
	b := graph.NewBuilder(9)
	for i := 0; i < 8; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	g := b.Build()
	r, err := GraphRWR(g, 0, RWRConfig{Restart: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if r[0] <= r[1] {
		t.Fatalf("query node not dominant under strong restart: %v <= %v", r[0], r[1])
	}
	for i := 1; i+2 < len(r); i++ {
		if r[i] <= r[i+1] {
			t.Fatalf("RWR not decaying along path: r[%d]=%v <= r[%d]=%v", i, r[i], i+1, r[i+1])
		}
	}
}

func TestSummaryRWRMatchesNaive(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g, s := randomSummary(t, seed, 0.4)
		q := graph.NodeID(int(seed) * 7 % g.NumNodes())
		fast, err := SummaryRWR(s, q, RWRConfig{})
		if err != nil {
			t.Fatal(err)
		}
		naive, err := RWR(SummaryOracle{s}, q, RWRConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !approxEqual(fast, naive, 1e-7) {
			t.Fatalf("seed %d: block-accelerated RWR deviates from naive Alg. 6", seed)
		}
	}
}

func TestSummaryRWROnIdentityIsExact(t *testing.T) {
	g := gen.BarabasiAlbert(80, 2, 4)
	s := summary.Identity(g)
	exact, err := GraphRWR(g, 5, RWRConfig{})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := SummaryRWR(s, 5, RWRConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(exact, approx, 1e-9) {
		t.Fatal("RWR on identity summary must equal RWR on graph")
	}
}

func TestHOPMatchesBFS(t *testing.T) {
	g := gen.BarabasiAlbert(120, 2, 5)
	d1, err := GraphHOP(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := HOP(GraphOracle{g}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("HOP mismatch at %d: %d vs %d", i, d1[i], d2[i])
		}
	}
}

func TestSummaryHOPMatchesNaive(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		g, s := randomSummary(t, seed, 0.35)
		q := graph.NodeID(int(seed) * 13 % g.NumNodes())
		fast, err := SummaryHOP(s, q)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := HOP(SummaryOracle{s}, q)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fast {
			if fast[i] != naive[i] {
				t.Fatalf("seed %d: SummaryHOP[%d]=%d, naive=%d", seed, i, fast[i], naive[i])
			}
		}
	}
}

func TestSummaryHOPSelfLoopSemantics(t *testing.T) {
	// Supernode {0,1} with self-loop, {2} attached to it: dist(0->1) = 1.
	s := summary.New([]uint32{0, 0, 1}, [][]uint32{{0, 1}, nil}, nil)
	d, err := SummaryHOP(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d[1] != 1 || d[2] != 1 {
		t.Fatalf("distances = %v, want [0 1 1]", d)
	}
	// Without the self-loop, the only path 0->1 goes through node 2.
	s2 := summary.New([]uint32{0, 0, 1}, [][]uint32{{1}, nil}, nil)
	d2, err := SummaryHOP(s2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d2[2] != 1 || d2[1] != 2 {
		t.Fatalf("distances = %v, want [0 2 1]", d2)
	}
}

func TestFillUnreached(t *testing.T) {
	d := []int32{0, 2, -1, 1, -1}
	FillUnreached(d, 99)
	if d[2] != 2 || d[4] != 2 {
		t.Fatalf("FillUnreached = %v, want unreached -> 2", d)
	}
	all := []int32{-1, -1}
	FillUnreached(all, 7)
	if all[0] != 7 || all[1] != 7 {
		t.Fatalf("FillUnreached(all unreached) = %v, want fallback 7", all)
	}
}

func TestPHPProperties(t *testing.T) {
	g := gen.BarabasiAlbert(100, 2, 6)
	p, err := GraphPHP(g, 4, PHPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if p[4] != 1 {
		t.Fatalf("PHP at query node = %v, want 1", p[4])
	}
	for u, x := range p {
		if x < 0 || x > 1 {
			t.Fatalf("PHP[%d] = %v outside [0,1]", u, x)
		}
	}
	// Direct neighbors of q score at least c/deg * php... simply: some
	// neighbor must score above a distant node on a path-like check.
	d := graph.BFS(g, 4)
	var near, far float64
	for u := range p {
		if d[u] == 1 && p[u] > near {
			near = p[u]
		}
		if d[u] >= 4 && p[u] > far {
			far = p[u]
		}
	}
	if near <= far {
		t.Fatalf("PHP near=%v not above far=%v", near, far)
	}
}

func TestSummaryPHPMatchesNaive(t *testing.T) {
	for _, seed := range []int64{2, 5} {
		g, s := randomSummary(t, seed, 0.4)
		q := graph.NodeID(int(seed) * 11 % g.NumNodes())
		fast, err := SummaryPHP(s, q, PHPConfig{})
		if err != nil {
			t.Fatal(err)
		}
		naive, err := PHP(SummaryOracle{s}, q, PHPConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !approxEqual(fast, naive, 1e-7) {
			t.Fatalf("seed %d: block-accelerated PHP deviates from naive", seed)
		}
	}
}

func TestSummaryPHPOnIdentityIsExact(t *testing.T) {
	g := gen.BarabasiAlbert(60, 2, 8)
	s := summary.Identity(g)
	exact, err := GraphPHP(g, 2, PHPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := SummaryPHP(s, 2, PHPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(exact, approx, 1e-9) {
		t.Fatal("PHP on identity summary must equal PHP on graph")
	}
}

func TestWeightedSummaryQueries(t *testing.T) {
	// A weighted summary: verify fast implementations agree with naive under
	// non-unit weights.
	// Nodes 0..7 open supernodes 0..7, so the IDs follow first occurrence;
	// the rest join one at random.
	rng := rand.New(rand.NewSource(9))
	superOf := make([]uint32, 30)
	for i := range superOf {
		superOf[i] = uint32(i)
		if i >= 8 {
			superOf[i] = uint32(rng.Intn(8))
		}
	}
	upper := make([][]uint32, 8)
	weights := make([][]float64, 8)
	for a := 0; a < 8; a++ {
		for b := a; b < 8; b++ {
			if rng.Float64() < 0.4 {
				upper[a] = append(upper[a], uint32(b))
				weights[a] = append(weights[a], 0.25+rng.Float64())
			}
		}
	}
	s := summary.New(superOf, upper, weights)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	fastR, err := SummaryRWR(s, 0, RWRConfig{})
	if err != nil {
		t.Fatal(err)
	}
	naiveR, err := RWR(SummaryOracle{s}, 0, RWRConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(fastR, naiveR, 1e-7) {
		t.Fatal("weighted RWR mismatch")
	}
	fastP, err := SummaryPHP(s, 0, PHPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	naiveP, err := PHP(SummaryOracle{s}, 0, PHPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(fastP, naiveP, 1e-7) {
		t.Fatal("weighted PHP mismatch")
	}
}

func TestQueryNodeRangeChecks(t *testing.T) {
	g := gen.BarabasiAlbert(20, 2, 10)
	s := summary.Identity(g)
	if _, err := GraphRWR(g, 99, RWRConfig{}); err == nil {
		t.Error("GraphRWR accepted out-of-range query")
	}
	if _, err := SummaryRWR(s, 99, RWRConfig{}); err == nil {
		t.Error("SummaryRWR accepted out-of-range query")
	}
	if _, err := GraphHOP(g, 99); err == nil {
		t.Error("GraphHOP accepted out-of-range query")
	}
	if _, err := SummaryHOP(s, 99); err == nil {
		t.Error("SummaryHOP accepted out-of-range query")
	}
	if _, err := GraphPHP(g, 99, PHPConfig{}); err == nil {
		t.Error("GraphPHP accepted out-of-range query")
	}
	if _, err := SummaryPHP(s, 99, PHPConfig{}); err == nil {
		t.Error("SummaryPHP accepted out-of-range query")
	}
}

func TestToFloats(t *testing.T) {
	f := ToFloats([]int32{0, 3, -1})
	if f[0] != 0 || f[1] != 3 || f[2] != -1 {
		t.Fatalf("ToFloats = %v", f)
	}
}
