package core

import (
	"context"
	"testing"

	"pegasus/internal/gen"
	"pegasus/internal/weights"
)

// Micro-benchmarks for the engine's hot paths; useful when tuning the merge
// loop, which dominates summarization time.

func benchEngine(b *testing.B, n, m int) *engine {
	b.Helper()
	g := gen.BarabasiAlbert(n, m, 1)
	cfg, err := Config{BudgetRatio: 0.5, Seed: 1}.withDefaults(g)
	if err != nil {
		b.Fatal(err)
	}
	w, err := weights.New(g, []uint32{0, 1, 2}, 1.25)
	if err != nil {
		b.Fatal(err)
	}
	return newEngine(g, w, cfg)
}

// evalSink keeps BenchmarkEvaluateMerge's results live.
var evalSink float64

// BenchmarkEvaluateMerge measures one candidate-pair evaluation (Lemma 1:
// O(deg(A)+deg(B))) from memo entries built before the timer starts, as a
// merge round reads them.
func BenchmarkEvaluateMerge(b *testing.B) {
	e := benchEngine(b, 5000, 4)
	entries := e.freshEntries(e.aliveSlots()...)
	pos := e.scorer.pos
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := i % 5000
		c := (i*7 + 1) % 5000
		if a == c {
			c = (c + 1) % 5000
		}
		rel, _ := e.evaluateMergeInto(&entries[a], &entries[c], pos)
		evalSink += rel
	}
}

// BenchmarkCandidateGroups measures one full shingle-grouping pass (O(|E|)).
func BenchmarkCandidateGroups(b *testing.B) {
	e := benchEngine(b, 5000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.candidateGroups(context.Background(), i+1)
	}
}

// BenchmarkPerformMerge measures merge application including superedge
// re-selection.
func BenchmarkPerformMerge(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := benchEngine(b, 1000, 4)
		slots := e.aliveSlots()
		b.StartTimer()
		for j := 0; j+1 < len(slots) && j < 200; j += 2 {
			e.performMerge(slots[j], slots[j+1])
		}
	}
}
