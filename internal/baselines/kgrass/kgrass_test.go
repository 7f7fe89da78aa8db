package kgrass

import (
	"bytes"
	"testing"

	"pegasus/internal/gen"
	"pegasus/internal/graph"
	"pegasus/internal/metrics"
	"pegasus/internal/persist"
)

func TestSummarizeReachesTarget(t *testing.T) {
	g := gen.BarabasiAlbert(120, 2, 1)
	s, err := Summarize(g, Config{TargetSupernodes: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumSupernodes() != 30 {
		t.Fatalf("|S| = %d, want 30", s.NumSupernodes())
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !s.Weighted() {
		t.Error("k-GraSS summaries should carry density weights")
	}
}

func TestMergePrefersTwins(t *testing.T) {
	// K_{4,4}: merging twins is free; k-GraSS at k=2 must find the exact
	// bipartite summary (zero L1 error) almost surely with c=1 sampling over
	// enough steps.
	b := graph.NewBuilder(8)
	for l := 0; l < 4; l++ {
		for r := 4; r < 8; r++ {
			b.AddEdge(graph.NodeID(l), graph.NodeID(r))
		}
	}
	g := b.Build()
	best := 1e18
	for seed := int64(0); seed < 5; seed++ {
		s, err := Summarize(g, Config{TargetSupernodes: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if e := metrics.ReconstructionError(g, s); e < best {
			best = e
		}
	}
	if best > 1e-9 {
		t.Fatalf("best reconstruction error over seeds = %v, want 0", best)
	}
}

func TestErrorGrowsAsKShrinks(t *testing.T) {
	g := gen.BarabasiAlbert(100, 3, 3)
	sBig, err := Summarize(g, Config{TargetSupernodes: 80, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sSmall, err := Summarize(g, Config{TargetSupernodes: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eBig := metrics.ReconstructionError(g, sBig)
	eSmall := metrics.ReconstructionError(g, sSmall)
	if eSmall <= eBig {
		t.Fatalf("error at k=10 (%v) should exceed error at k=80 (%v)", eSmall, eBig)
	}
}

func TestInvalidConfig(t *testing.T) {
	g := gen.BarabasiAlbert(20, 2, 1)
	if _, err := Summarize(g, Config{TargetSupernodes: 0}); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := Summarize(g, Config{TargetSupernodes: 99}); err == nil {
		t.Error("accepted k > |V|")
	}
}

func TestBlockErr(t *testing.T) {
	if blockErr(0, 10) != 0 {
		t.Error("empty block should have zero error")
	}
	if blockErr(10, 10) != 0 {
		t.Error("full block should have zero error")
	}
	if got := blockErr(5, 10); got != 5 {
		t.Errorf("half block error = %v, want 5", got)
	}
	if blockErr(3, 0) != 0 {
		t.Error("degenerate block should have zero error")
	}
}

// TestSummarizeDeterministic: a k-GraSS summary is a function of the graph
// and the config alone, so three runs encode to the same artifact bytes.
// On this config, merge choices that followed Go's map iteration order
// gave different summaries within three runs.
func TestSummarizeDeterministic(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 3, 3)
	var first []byte
	for run := 0; run < 3; run++ {
		s, err := Summarize(g, Config{TargetSupernodes: 600, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := persist.EncodeBytes(persist.Artifact{Summary: s})
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = raw
		} else if !bytes.Equal(raw, first) {
			t.Fatalf("run %d encodes to %d bytes that differ from run 0's %d (|P| = %d)",
				run, len(raw), len(first), s.NumSuperedges())
		}
	}
}
