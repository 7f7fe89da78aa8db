package pegasus_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"pegasus"
)

func TestPublicAPIQuickstart(t *testing.T) {
	// The README quickstart, end to end through the public surface only.
	g := pegasus.GenerateBA(300, 3, 1)
	res, err := pegasus.Summarize(g, pegasus.Config{
		Targets:     []pegasus.NodeID{42},
		BudgetRatio: 0.5,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if s.SizeBits() > 0.5*g.SizeBits()+1e-6 {
		t.Fatal("budget exceeded")
	}
	if got := s.Neighbors(42); got == nil {
		t.Fatal("no approximate neighborhood")
	}
	scores, err := pegasus.SummaryRWR(s, 42, pegasus.RWRConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != g.NumNodes() {
		t.Fatal("RWR vector has wrong length")
	}
}

func TestPublicAPIGraphRoundTrip(t *testing.T) {
	g := pegasus.GenerateSBM(120, 4, 8, 0.1, 2)
	dir := t.TempDir()
	gp := filepath.Join(dir, "g.txt")
	if err := pegasus.SaveGraph(gp, g); err != nil {
		t.Fatal(err)
	}
	g2, err := pegasus.LoadGraph(gp)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("graph round trip changed edges")
	}
	lcc, ids := pegasus.LargestComponent(g2)
	if lcc.NumNodes() > g2.NumNodes() || len(ids) != lcc.NumNodes() {
		t.Fatal("largest component inconsistent")
	}
}

func TestPublicAPISummaryRoundTrip(t *testing.T) {
	g := pegasus.GenerateBA(150, 2, 3)
	res, err := pegasus.SummarizeNonPersonalized(g, pegasus.Config{BudgetRatio: 0.4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sp := filepath.Join(dir, "s.bin")
	if err := res.Summary.SaveFile(sp); err != nil {
		t.Fatal(err)
	}
	s2, err := pegasus.LoadSummary(sp)
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumSupernodes() != res.Summary.NumSupernodes() {
		t.Fatal("summary round trip changed shape")
	}
}

func TestPublicAPIBaselineAndMetrics(t *testing.T) {
	g := pegasus.GenerateBA(200, 3, 4)
	res, err := pegasus.SummarizeSSumM(g, pegasus.SSumMConfig{BudgetRatio: 0.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	w, err := pegasus.NewWeights(g, []pegasus.NodeID{0}, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	pe := pegasus.PersonalizedError(g, res.Summary, w)
	re := pegasus.ReconstructionError(g, res.Summary)
	if pe < 0 || re < 0 || math.IsNaN(pe) || math.IsNaN(re) {
		t.Fatalf("bad errors: %v %v", pe, re)
	}
	exact, _ := pegasus.GraphRWR(g, 0, pegasus.RWRConfig{})
	approx, _ := pegasus.SummaryRWR(res.Summary, 0, pegasus.RWRConfig{})
	sm, err := pegasus.SMAPE(exact, approx)
	if err != nil || sm < 0 || sm > 1 {
		t.Fatalf("SMAPE = %v, err = %v", sm, err)
	}
	sc, err := pegasus.Spearman(exact, approx)
	if err != nil || sc < -1 || sc > 1 {
		t.Fatalf("Spearman = %v, err = %v", sc, err)
	}
}

func TestPublicAPIIdentityAndQueries(t *testing.T) {
	g := pegasus.GenerateWS(100, 4, 0.05, 5)
	s := pegasus.IdentitySummary(g)
	hExact, err := pegasus.GraphHOP(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	hApprox, err := pegasus.SummaryHOP(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range hExact {
		if hExact[i] != hApprox[i] {
			t.Fatal("identity summary changed HOP answers")
		}
	}
	p, err := pegasus.GraphPHP(g, 3, pegasus.PHPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := pegasus.SummaryPHP(s, 3, pegasus.PHPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range p {
		if math.Abs(p[i]-ps[i]) > 1e-9 {
			t.Fatal("identity summary changed PHP answers")
		}
	}
	d := pegasus.FillUnreached([]int32{0, -1, 2}, 9)
	if d[1] != 2 {
		t.Fatal("FillUnreached wrong")
	}
}

func TestPublicAPIGenerators(t *testing.T) {
	if g := pegasus.GenerateER(50, 100, 1); g.NumEdges() != 100 {
		t.Fatal("ER generator wrong edge count")
	}
	b := pegasus.NewGraphBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	if g := b.Build(); g.NumEdges() != 2 {
		t.Fatal("builder wrong edge count")
	}
}

func TestPublicAPICompressedGraphIO(t *testing.T) {
	g := pegasus.GenerateBA(400, 3, 6)
	var buf bytes.Buffer
	if err := pegasus.WriteGraphCompressed(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := pegasus.ReadGraphCompressed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("compressed round trip changed graph")
	}
}

func TestPublicAPIStatsAndOracles(t *testing.T) {
	g := pegasus.GenerateBA(200, 3, 7)
	st := pegasus.ComputeGraphStats(g)
	if st.Nodes != 200 || st.Edges != g.NumEdges() {
		t.Fatalf("stats wrong: %+v", st)
	}
	pr := pegasus.PageRank(pegasus.GraphOracle(g), pegasus.PageRankConfig{})
	if len(pr) != 200 {
		t.Fatal("PageRank length wrong")
	}
	top := pegasus.TopK(pr, 5)
	if len(top) != 5 {
		t.Fatal("TopK length wrong")
	}
	push, err := pegasus.PushRWR(pegasus.GraphOracle(g), top[0], pegasus.PushConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(push) != 200 {
		t.Fatal("PushRWR length wrong")
	}
	if d, err := pegasus.Dijkstra(pegasus.GraphOracle(g), 0); err != nil || len(d) != 200 {
		t.Fatalf("Dijkstra: %v", err)
	}
	if o := pegasus.DFSOrder(pegasus.GraphOracle(g), 0); len(o) == 0 {
		t.Fatal("DFSOrder empty")
	}
	_ = pegasus.Degrees(pegasus.SummaryOracle(pegasus.IdentitySummary(g)))
	_ = pegasus.ClusteringCoefficient(pegasus.GraphOracle(g), 0)
	_ = pegasus.EigenvectorCentrality(pegasus.GraphOracle(g), 0, 0)
}

func TestPublicAPIPartitionAndCluster(t *testing.T) {
	g := pegasus.GenerateSBM(300, 4, 10, 0.1, 8)
	g, _ = pegasus.LargestComponent(g)
	labels, err := pegasus.PartitionGraph(g, 4, pegasus.PartitionLouvain, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pegasus.PartitionGraph(g, 4, "bogus", 1); err == nil {
		t.Fatal("unknown method accepted")
	}
	budget := 0.5 * g.SizeBits()
	c, err := pegasus.BuildSummaryCluster(g, labels, 4, budget, pegasus.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Machines) != 4 {
		t.Fatal("wrong machine count")
	}
	c2, err := pegasus.BuildSubgraphCluster(g, labels, 4, budget)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.HOP(0); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIArtifactStore(t *testing.T) {
	g := pegasus.GenerateSBM(200, 4, 8, 0.1, 3)
	g, _ = pegasus.LargestComponent(g)
	labels := make([]uint32, g.NumNodes())
	for u := range labels {
		labels[u] = uint32(u % 4)
	}
	budget := 0.5 * g.SizeBits()
	store, err := pegasus.OpenArtifactStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := pegasus.Config{Seed: 2}
	cold, st, err := pegasus.BuildSummaryClusterIncremental(ctx, g, labels, 4, budget, cfg,
		pegasus.ClusterBuildOptions{Workers: 1, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rebuilt != 4 || st.Loaded != 0 {
		t.Fatalf("cold: rebuilt=%d loaded=%d, want 4/0", st.Rebuilt, st.Loaded)
	}
	warm, st, err := pegasus.BuildSummaryClusterIncremental(ctx, g, labels, 4, budget, cfg,
		pegasus.ClusterBuildOptions{Workers: 1, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if st.Loaded != 4 || st.Rebuilt != 0 {
		t.Fatalf("warm: loaded=%d rebuilt=%d, want 4/0", st.Loaded, st.Rebuilt)
	}
	var a, b bytes.Buffer
	if err := cold.Machines[0].Summary.Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := warm.Machines[0].Summary.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("warm-loaded shard differs from cold build")
	}
	if stats := store.Stats(); stats.Hits != 4 || stats.Puts != 4 {
		t.Fatalf("store stats = %+v, want 4 hits, 4 puts", stats)
	}

	// The codec round-trips through the exported wrappers, and damage is
	// typed.
	var enc bytes.Buffer
	if err := pegasus.EncodeArtifact(&enc, pegasus.Artifact{Summary: cold.Machines[1].Summary}); err != nil {
		t.Fatal(err)
	}
	art, err := pegasus.DecodeArtifact(enc.Bytes())
	if err != nil || art.Summary == nil {
		t.Fatalf("decode: %v", err)
	}
	raw := enc.Bytes()
	raw[len(raw)/2] ^= 0x10
	if _, err := pegasus.DecodeArtifact(raw); !errors.Is(err, pegasus.ErrArtifactCorrupt) {
		t.Fatalf("flipped byte: err = %v, want ErrArtifactCorrupt", err)
	}
}
