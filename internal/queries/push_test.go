package queries

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"pegasus/internal/gen"
	"pegasus/internal/graph"
	"pegasus/internal/summary"
)

func TestPushRWRApproximatesPowerIteration(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 1)
	exact, err := GraphRWR(g, 7, RWRConfig{Eps: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := PushRWR(GraphOracle{g}, 7, PushConfig{Eps: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	l1 := 0.0
	for i := range exact {
		l1 += math.Abs(exact[i] - approx[i])
	}
	if l1 > 0.01 {
		t.Fatalf("push RWR L1 error %v too large", l1)
	}
	// Mass approximately conserved.
	sum := 0.0
	for _, x := range approx {
		sum += x
	}
	if math.Abs(sum-1) > 0.01 {
		t.Fatalf("push RWR mass %v, want ~1", sum)
	}
}

func TestPushRWRTopKMatchesExact(t *testing.T) {
	g := gen.PlantedPartition(gen.SBMConfig{Nodes: 400, Communities: 8, AvgDegree: 10, MixingP: 0.05}, 2)
	lcc, _ := graph.LargestComponent(g)
	exact, err := GraphRWR(lcc, 3, RWRConfig{Eps: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := PushRWR(GraphOracle{lcc}, 3, PushConfig{Eps: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	// Top-10 by push must overlap top-10 exact heavily (k-NN use case).
	te := TopK(exact, 10)
	ta := TopK(approx, 10)
	inExact := map[graph.NodeID]bool{}
	for _, u := range te {
		inExact[u] = true
	}
	overlap := 0
	for _, u := range ta {
		if inExact[u] {
			overlap++
		}
	}
	if overlap < 8 {
		t.Fatalf("top-10 overlap = %d/10, want >= 8", overlap)
	}
}

func TestPushRWROnSummary(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 3)
	s := summary.Identity(g)
	a, err := PushRWR(SummaryOracle{s}, 0, PushConfig{Eps: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PushRWR(GraphOracle{g}, 0, PushConfig{Eps: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatal("identity summary changed push RWR")
		}
	}
}

func TestPushRWRLocality(t *testing.T) {
	// On a long path, pushing from one end must leave far residuals at ~0
	// without touching most of the graph (locality is the point).
	b := graph.NewBuilder(10000)
	for i := 0; i < 9999; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	g := b.Build()
	p, err := PushRWR(GraphOracle{g}, 0, PushConfig{Restart: 0.2, Eps: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if p[0] <= p[100] {
		t.Fatal("no locality: source mass not dominant")
	}
	if p[9999] > 1e-6 {
		t.Fatalf("far end received %v mass, want ~0", p[9999])
	}
}

func TestPushRWRRangeCheck(t *testing.T) {
	g := gen.BarabasiAlbert(10, 2, 4)
	if _, err := PushRWR(GraphOracle{g}, 99, PushConfig{}); err == nil {
		t.Fatal("out-of-range query accepted")
	}
}

func TestTopK(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.5, 0.9, 0.2}
	top := TopK(scores, 3)
	want := []graph.NodeID{1, 3, 2} // ties by ID
	if len(top) != 3 {
		t.Fatalf("TopK = %v", top)
	}
	for i := range want {
		if top[i] != want[i] {
			t.Fatalf("TopK = %v, want %v", top, want)
		}
	}
	if got := TopK(scores, 99); len(got) != len(scores) {
		t.Fatal("oversized k not clamped")
	}
	if got := TopK(scores, 0); got != nil {
		t.Fatal("k=0 should give nil")
	}
	// Full ordering is descending.
	full := TopK(scores, len(scores))
	vals := make([]float64, len(full))
	for i, u := range full {
		vals[i] = scores[u]
	}
	if !sort.IsSorted(sort.Reverse(sort.Float64Slice(vals))) {
		t.Fatalf("TopK not descending: %v", vals)
	}

	// Against a full sort of random scores drawn from few values, so most
	// scores tie: the top k of the score-descending, ID-ascending order,
	// for the smallest, a typical and the largest k.
	rng := rand.New(rand.NewSource(5))
	scores = make([]float64, 1000)
	for i := range scores {
		scores[i] = float64(rng.Intn(25)) / 24
	}
	scores[17] = math.Copysign(0, -1) // -0 ties with +0 and ranks by ID
	order := make([]graph.NodeID, len(scores))
	for i := range order {
		order[i] = graph.NodeID(i)
	}
	sort.SliceStable(order, func(i, j int) bool { return scores[order[i]] > scores[order[j]] })
	for _, k := range []int{1, 10, len(scores)} {
		if got := TopK(scores, k); !slices.Equal(got, order[:k]) {
			t.Fatalf("TopK(k=%d) = %v..., want %v...", k, got[:min(k, 10)], order[:min(k, 10)])
		}
	}

	// NaN scores rank below every number, by ID among themselves.
	scores = []float64{math.NaN(), 0.5, math.NaN(), -1, 0.5}
	if got, want := TopK(scores, 5), []graph.NodeID{1, 4, 3, 0, 2}; !slices.Equal(got, want) {
		t.Fatalf("TopK with NaN scores = %v, want %v", got, want)
	}
}
