package core

import (
	"bytes"
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
	cfg := Config{BudgetRatio: 0.4, Seed: 9, Workers: 1}

	plain, err := SummarizeCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	traced, err := SummarizeCtx(obs.WithTrace(context.Background(), tr), g, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var a, b bytes.Buffer
	if err := plain.Summary.Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := traced.Summary.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("traced build produced a different artifact than the untraced build")
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

// TestWorkCountsMatchAcrossWorkers pins the exact work counters: the mass
// accumulations and neighbour visits of every iteration are the same at
// Workers 1, 2 and 8, because which masses are stale depends only on the
// merges, never on how many workers score a round. The build.merge span
// of each iteration carries the same counts as its IterStats.
func TestWorkCountsMatchAcrossWorkers(t *testing.T) {
	g := gen.BarabasiAlbert(1500, 4, 4)
	// Random groups give rounds past minParallelPairs, so the scoring
	// fans out.
	for _, random := range []bool{false, true} {
		checkWorkCounts(t, g, Config{Targets: []graph.NodeID{3, 50, 700}, BudgetRatio: 0.4, Seed: 13,
			RandomGroups: random, MaxIter: 5})
	}
}

func checkWorkCounts(t *testing.T, g *graph.Graph, base Config) {
	t.Helper()
	var ref []IterStats
	for _, workers := range []int{1, 2, 8} {
		var stats []IterStats
		tr := obs.NewTrace()
		cfg := base
		cfg.Workers = workers
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
			t.Fatalf("workers=%d: %d build.merge spans for %d iterations", workers, len(spans), len(stats))
		}
		total := 0
		for i, s := range stats {
			attrs := map[string]string{}
			for _, a := range spans[i].Attrs {
				attrs[a.Key] = a.Val
			}
			if got, want := attrs["mass_accumulations"], strconv.Itoa(s.MassAccumulations); got != want {
				t.Errorf("workers=%d iteration %d: span mass_accumulations %q, IterStats %s", workers, s.Iteration, got, want)
			}
			if got, want := attrs["neighbor_visits"], strconv.Itoa(s.NeighborVisits); got != want {
				t.Errorf("workers=%d iteration %d: span neighbor_visits %q, IterStats %s", workers, s.Iteration, got, want)
			}
			total += s.MassAccumulations
		}
		if total == 0 {
			t.Fatalf("workers=%d: no mass accumulations counted", workers)
		}
		if ref == nil {
			ref = stats
			continue
		}
		if len(stats) != len(ref) {
			t.Fatalf("workers=%d ran %d iterations, workers=1 %d", workers, len(stats), len(ref))
		}
		for i := range stats {
			if stats[i].MassAccumulations != ref[i].MassAccumulations || stats[i].NeighborVisits != ref[i].NeighborVisits {
				t.Errorf("iteration %d: workers=%d counts %d accumulations, %d visits; workers=1 %d, %d",
					i+1, workers, stats[i].MassAccumulations, stats[i].NeighborVisits,
					ref[i].MassAccumulations, ref[i].NeighborVisits)
			}
		}
	}
}
