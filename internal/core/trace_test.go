package core

import (
	"context"
	"strconv"
	"testing"

	"pegasus/internal/gen"
	"pegasus/internal/graph"
	"pegasus/internal/obs"
)

// TestTracingDoesNotPerturbSummary is the golden-fingerprint guarantee of
// the observability layer: building with a trace attached must produce a
// bit-identical artifact to the untraced build — spans observe the engine,
// they never touch its randomness or its merge decisions.
func TestTracingDoesNotPerturbSummary(t *testing.T) {
	g := gen.PlantedPartition(gen.SBMConfig{Nodes: 240, Communities: 4, AvgDegree: 10, MixingP: 0.08}, 2)
	cfg := Config{BudgetRatio: 0.4, Seed: 9}

	plain, err := SummarizeCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	traced, err := SummarizeCtx(obs.WithTrace(context.Background(), tr), g, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if fingerprintSummary(plain.Summary) != fingerprintSummary(traced.Summary) {
		t.Fatal("traced build produced a different summary than the untraced build")
	}
	if plain.Iterations != traced.Iterations || plain.FinalTheta != traced.FinalTheta {
		t.Fatalf("traced build diverged: iterations %d vs %d, theta %v vs %v",
			plain.Iterations, traced.Iterations, plain.FinalTheta, traced.FinalTheta)
	}

	// And the trace actually saw the engine: every phase of the build loop
	// must have recorded at least one span.
	names := map[string]int{}
	for _, s := range tr.View().Spans {
		names[s.Name]++
	}
	for _, phase := range []string{"build.weights", "build.shingle", "build.candidates", "build.merge", "build.finalize"} {
		if names[phase] == 0 {
			t.Errorf("trace missing %q span; have %v", phase, names)
		}
	}
}

// workTotals is the sum of one build's per-iteration work counters.
type workTotals struct {
	Iterations, Groups, MergeRounds, PairsScored, MassAccumulations, NeighborVisits, Merges, Rejections int
}

// TestWorkCountsPinned pins the exact work counters of two builds, summed
// over their iterations: candidate groups, merge rounds, unique pairs
// scored, mass accumulations, neighbour visits, merges and rejections. They
// repeat for a fixed graph and config, so a change to how much work the
// merge loop does shows here as an exact diff. The build.merge span of
// every iteration must carry the same counts as its IterStats.
func TestWorkCountsPinned(t *testing.T) {
	g := gen.BarabasiAlbert(1500, 4, 4)
	for _, tc := range []struct {
		random bool
		want   workTotals
	}{
		{false, workTotals{Iterations: 5, Groups: 1448, MergeRounds: 3986, PairsScored: 21869,
			MassAccumulations: 6637, NeighborVisits: 58695, Merges: 198, Rejections: 3788}},
		{true, workTotals{Iterations: 5, Groups: 15, MergeRounds: 606, PairsScored: 284675,
			MassAccumulations: 7827, NeighborVisits: 66798, Merges: 161, Rejections: 445}},
	} {
		got := buildWorkTotals(t, g, Config{Targets: []graph.NodeID{3, 50, 700}, BudgetRatio: 0.4, Seed: 13,
			RandomGroups: tc.random, MaxIter: 5})
		if got != tc.want {
			t.Errorf("random groups %t: work %+v, want %+v", tc.random, got, tc.want)
		}
	}
}

// TestWorkIsLinearInEdges checks the linear-time claim (Alg. 1) on exact
// counts rather than wall time: on Barabási–Albert graphs (m = 8) of 2000
// and 20,000 nodes, with 1% of V as targets and budget 0.7, the neighbour
// visits and the unique pairs scored per edge may differ by at most a
// factor 1.5 between the two sizes. Work that grew as |E|^1.18 or faster
// would break the bound. The counters repeat exactly for a fixed graph and
// config, so the test cannot flake.
func TestWorkIsLinearInEdges(t *testing.T) {
	perEdge := func(n int) (visits, pairs float64) {
		g := gen.BarabasiAlbert(n, 8, 1)
		w := buildWorkTotals(t, g, Config{Targets: graph.SampleNodes(g, n/100, 1), BudgetRatio: 0.7, Seed: 1})
		m := float64(g.NumEdges())
		return float64(w.NeighborVisits) / m, float64(w.PairsScored) / m
	}
	smallVisits, smallPairs := perEdge(2000)
	largeVisits, largePairs := perEdge(20000)
	for _, c := range []struct {
		name         string
		small, large float64
	}{
		{"neighbour visits", smallVisits, largeVisits},
		{"pairs scored", smallPairs, largePairs},
	} {
		t.Logf("%s per edge: %.3f at 2000 nodes, %.3f at 20000", c.name, c.small, c.large)
		if r := c.large / c.small; !(r >= 1/1.5 && r <= 1.5) {
			t.Errorf("%s per edge went from %.3f to %.3f (×%.2f) for 10× the nodes", c.name, c.small, c.large, r)
		}
	}
}

// buildWorkTotals summarizes g under cfg with a trace attached, checks each
// build.merge span's counters against the iteration's IterStats and
// returns the build's totals.
func buildWorkTotals(t *testing.T, g *graph.Graph, cfg Config) workTotals {
	t.Helper()
	var stats []IterStats
	tr := obs.NewTrace()
	cfg.Trace = func(s IterStats) { stats = append(stats, s) }
	if _, err := SummarizeCtx(obs.WithTrace(context.Background(), tr), g, cfg); err != nil {
		t.Fatal(err)
	}
	var spans []obs.SpanView
	for _, s := range tr.View().Spans {
		if s.Name == "build.merge" {
			spans = append(spans, s)
		}
	}
	if len(spans) != len(stats) {
		t.Fatalf("%d build.merge spans for %d iterations", len(spans), len(stats))
	}
	var w workTotals
	for i, s := range stats {
		attrs := map[string]string{}
		for _, a := range spans[i].Attrs {
			attrs[a.Key] = a.Val
		}
		for _, c := range []struct {
			key string
			v   int
		}{
			{"iteration", s.Iteration},
			{"groups", s.Groups},
			{"rounds", s.MergeRounds},
			{"pairs_scored", s.PairsScored},
			{"merges", s.Merges},
			{"rejections", s.Rejections},
			{"mass_accumulations", s.MassAccumulations},
			{"neighbor_visits", s.NeighborVisits},
		} {
			if got, want := attrs[c.key], strconv.Itoa(c.v); got != want {
				t.Errorf("iteration %d: span %s %q, IterStats %s", s.Iteration, c.key, got, want)
			}
		}
		w.Iterations++
		w.Groups += s.Groups
		w.MergeRounds += s.MergeRounds
		w.PairsScored += s.PairsScored
		w.MassAccumulations += s.MassAccumulations
		w.NeighborVisits += s.NeighborVisits
		w.Merges += s.Merges
		w.Rejections += s.Rejections
	}
	return w
}
