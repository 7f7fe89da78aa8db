package pegasus_test

// One benchmark per table/figure of the paper's evaluation (§V), each
// regenerating the corresponding experiment at the Quick profile, plus
// micro-benchmarks for the core operations. Run everything with
//
//	go test -bench=. -benchmem
//
// and individual experiments with e.g. -bench=BenchmarkFig7. The experiment
// tables themselves are produced by cmd/pegasus-experiments; these
// benchmarks track the cost of regenerating them.
import (
	"testing"

	"pegasus"
	"pegasus/internal/experiments"
	"pegasus/internal/graph"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, experiments.Quick); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// BenchmarkTable2 regenerates Table II (dataset inventory).
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkFig5 regenerates Fig. 5 (personalization effectiveness).
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6 regenerates Fig. 6 (linear scalability sweep).
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7 regenerates Fig. 7 (accuracy vs compression, RWR & HOP).
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig7PHP regenerates the online appendix PHP panel of Fig. 7.
func BenchmarkFig7PHP(b *testing.B) { benchExperiment(b, "fig7php") }

// BenchmarkFig8 regenerates Fig. 8 (summarization and query times).
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9 regenerates Fig. 9 (effect of alpha).
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10 regenerates Fig. 10 (best alpha vs effective diameter).
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11 regenerates Fig. 11 (effect of beta).
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12 regenerates Fig. 12 (distributed multi-query answering).
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkFig12PHP regenerates the appendix PHP panel of Fig. 12.
func BenchmarkFig12PHP(b *testing.B) { benchExperiment(b, "fig12php") }

// BenchmarkAblationRelativeCost regenerates the Eq. 11 vs Eq. 10 ablation.
func BenchmarkAblationRelativeCost(b *testing.B) { benchExperiment(b, "ablation") }

// BenchmarkAblationThreshold regenerates the adaptive-vs-fixed threshold
// ablation (§III-E design choice).
func BenchmarkAblationThreshold(b *testing.B) { benchExperiment(b, "ablation-threshold") }

// BenchmarkAblationGrouping regenerates the shingle-vs-random candidate
// grouping ablation (§III-C design choice).
func BenchmarkAblationGrouping(b *testing.B) { benchExperiment(b, "ablation-grouping") }

// ---------------------------------------------------------------------------
// Micro-benchmarks for the core operations.

func benchGraph(b *testing.B, n, m int) *pegasus.Graph {
	b.Helper()
	g := pegasus.GenerateBA(n, m, 1)
	b.ResetTimer()
	return g
}

// benchBuild times build, one fixed summarization per op: the seed is
// pinned, so every op does the same work whatever b.N is, and ns/op
// compares across changes. It reports allocations and pairs/op, the unique
// candidate pairs each build scored (IterStats.PairsScored), an exact count
// that repeats when two changes did the same work.
func benchBuild(b *testing.B, build func(trace func(pegasus.IterStats)) error) {
	b.Helper()
	pairs := 0
	trace := func(s pegasus.IterStats) { pairs += s.PairsScored }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := build(trace); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pairs)/float64(b.N), "pairs/op")
}

// BenchmarkSummarizePegasus measures end-to-end personalized summarization
// (|V|=2000, |E|≈6000, ratio 0.5).
func BenchmarkSummarizePegasus(b *testing.B) {
	g := benchGraph(b, 2000, 3)
	benchBuild(b, func(trace func(pegasus.IterStats)) error {
		_, err := pegasus.Summarize(g, pegasus.Config{
			Targets: []pegasus.NodeID{0, 1, 2}, BudgetRatio: 0.5, Seed: 1, Trace: trace,
		})
		return err
	})
}

// BenchmarkSummarizeBootShard measures one shard build shaped like a
// perfbench boot shard: BA 6000 m=8, 30 targets, budget 0.5·Size(G) and
// the default α, where merge scoring dominates.
func BenchmarkSummarizeBootShard(b *testing.B) {
	g := benchGraph(b, 6000, 8)
	targets := graph.SampleNodes(g, 30, 8)
	benchBuild(b, func(trace func(pegasus.IterStats)) error {
		_, err := pegasus.Summarize(g, pegasus.Config{
			Targets: targets, BudgetBits: 0.5 * g.SizeBits(), Seed: 8, Trace: trace,
		})
		return err
	})
}

// BenchmarkSummarizeSSumM measures the SSumM baseline on the same input as
// BenchmarkSummarizePegasus.
func BenchmarkSummarizeSSumM(b *testing.B) {
	g := benchGraph(b, 2000, 3)
	benchBuild(b, func(trace func(pegasus.IterStats)) error {
		_, err := pegasus.SummarizeSSumM(g, pegasus.SSumMConfig{
			BudgetRatio: 0.5, Seed: 1, Trace: trace,
		})
		return err
	})
}

// BenchmarkSummaryRWR measures one block-accelerated RWR query on a summary.
func BenchmarkSummaryRWR(b *testing.B) {
	g := pegasus.GenerateBA(2000, 3, 1)
	res, err := pegasus.Summarize(g, pegasus.Config{BudgetRatio: 0.5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pegasus.SummaryRWR(res.Summary, pegasus.NodeID(i%2000), pegasus.RWRConfig{Eps: 1e-6}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSummaryHOP measures one BFS query on a summary.
func BenchmarkSummaryHOP(b *testing.B) {
	g := pegasus.GenerateBA(2000, 3, 1)
	res, err := pegasus.Summarize(g, pegasus.Config{BudgetRatio: 0.5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pegasus.SummaryHOP(res.Summary, pegasus.NodeID(i%2000)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPersonalizedError measures the O(|V|+|E|+|P|) objective
// evaluator.
func BenchmarkPersonalizedError(b *testing.B) {
	g := pegasus.GenerateBA(2000, 3, 1)
	res, err := pegasus.Summarize(g, pegasus.Config{BudgetRatio: 0.5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	w, err := pegasus.NewWeights(g, []pegasus.NodeID{0}, 1.25)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pegasus.PersonalizedError(g, res.Summary, w)
	}
}
