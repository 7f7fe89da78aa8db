package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pegasus/internal/gen"
	"pegasus/internal/graph"
	"pegasus/internal/metrics"
	"pegasus/internal/weights"
)

// TestPropertySummarizeAlwaysValid fuzzes Summarize over random graphs and
// configurations: the output must always be a valid partition with symmetric
// superedges, and with a feasible budget it must be met.
func TestPropertySummarizeAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var g *graph.Graph
		switch rng.Intn(3) {
		case 0:
			g = gen.BarabasiAlbert(30+rng.Intn(150), 1+rng.Intn(4), seed)
		case 1:
			g = gen.ErdosRenyi(30+rng.Intn(100), 50+rng.Intn(200), seed)
		default:
			g = gen.PlantedPartition(gen.SBMConfig{
				Nodes: 40 + rng.Intn(120), Communities: 1 + rng.Intn(6),
				AvgDegree: 2 + 6*rng.Float64(), MixingP: rng.Float64() / 2,
			}, seed)
		}
		ratio := 0.25 + rng.Float64()*0.65
		var targets []graph.NodeID
		if rng.Intn(2) == 0 {
			targets = graph.SampleNodes(g, 1+rng.Intn(5), seed)
		}
		res, err := Summarize(g, Config{
			Targets:     targets,
			Alpha:       1 + rng.Float64(),
			Beta:        0.05 + rng.Float64()*0.9,
			BudgetRatio: ratio,
			MaxIter:     1 + rng.Intn(20),
			Seed:        seed,
		})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := res.Summary.Validate(); err != nil {
			t.Logf("seed %d: invalid summary: %v", seed, err)
			return false
		}
		if res.BudgetMet && res.Summary.SizeBits() > ratio*g.SizeBits()+1e-6 {
			t.Logf("seed %d: BudgetMet but size exceeds budget", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPersonalizedErrorFiniteNonneg fuzzes the error evaluator on
// engine outputs: Eq. (1) is a sum of non-negative weights and must be
// finite and non-negative, and zero only with no flipped pairs.
func TestPropertyPersonalizedErrorFiniteNonneg(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.BarabasiAlbert(50+rng.Intn(100), 2, seed)
		res, err := Summarize(g, Config{BudgetRatio: 0.4, Seed: seed})
		if err != nil {
			return false
		}
		w, err := weights.New(g, graph.SampleNodes(g, 2, seed), 1.5)
		if err != nil {
			return false
		}
		e := metrics.PersonalizedError(g, res.Summary, w)
		return e >= 0 && e < 1e18
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeEverythingStillWorks merges all supernodes into one and checks
// the degenerate summary behaves.
func TestMergeEverythingStillWorks(t *testing.T) {
	g := gen.BarabasiAlbert(40, 2, 9)
	e := newTestEngine(t, g, Config{Seed: 1})
	for {
		slots := e.aliveSlots()
		if len(slots) < 2 {
			break
		}
		e.performMerge(slots[0], slots[1])
	}
	if e.numSuper != 1 {
		t.Fatalf("numSuper = %d, want 1", e.numSuper)
	}
	s := e.buildSummary()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.NumSupernodes() != 1 {
		t.Fatal("expected a single supernode")
	}
	// The single supernode must carry a self-loop (the graph has edges and
	// a dense block is cheaper than |E| corrections at this density).
	if s.NumSuperedges() > 1 {
		t.Fatalf("|P| = %d, want <= 1", s.NumSuperedges())
	}
}

// TestRandomGroupsAblationRuns exercises the RandomGroups engine option.
func TestRandomGroupsAblationRuns(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 10)
	res, err := Summarize(g, Config{BudgetRatio: 0.4, Seed: 2, RandomGroups: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Summary.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Summary.SizeBits() > 0.4*g.SizeBits()+1e-6 {
		t.Fatal("budget exceeded under RandomGroups")
	}
}
