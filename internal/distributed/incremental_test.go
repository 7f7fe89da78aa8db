package distributed

import (
	"bytes"
	"context"
	"testing"

	"pegasus/internal/core"
	"pegasus/internal/graph"
	"pegasus/internal/partition"
	"pegasus/internal/summary"
)

// incrementalInput builds the shared fixture: a 4-part partition and a
// fingerprintable summarizer config.
func incrementalInput(t *testing.T, seed int64) (*graph.Graph, []uint32, int, float64, core.Config, string) {
	t.Helper()
	g := clusterGraph(seed)
	m := 4
	labels := partition.RandomBalanced(g.NumNodes(), m, 1)
	base := core.Config{Seed: 3}
	key, ok := base.ContentKey()
	if !ok {
		t.Fatal("default config not fingerprintable")
	}
	return g, labels, m, 0.5 * g.SizeBits(), base, key
}

// dropHalfOfPart returns a target list covering every node except every
// second member of the given part — a change whose resolved target set
// differs on exactly one shard.
func dropHalfOfPart(g *graph.Graph, labels []uint32, part uint32) []graph.NodeID {
	targets := make([]graph.NodeID, 0, g.NumNodes())
	inPart := 0
	for u := 0; u < g.NumNodes(); u++ {
		if labels[u] == part {
			inPart++
			if inPart%2 == 0 {
				continue
			}
		}
		targets = append(targets, graph.NodeID(u))
	}
	return targets
}

func summaryBytes(t *testing.T, s *summary.Summary) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIncrementalRebuildReusesBitIdentical is the tentpole's safety pin: a
// 1-of-4-shard targets change must rebuild exactly that shard, transplant
// the other three (pointer-equal machines), and produce a cluster
// byte-identical to a from-scratch build of the same configuration.
func TestIncrementalRebuildReusesBitIdentical(t *testing.T) {
	g, labels, m, budget, base, key := incrementalInput(t, 21)
	sum := PegasusSummarizer(base)
	ctx := context.Background()

	prev, st, err := BuildSummaryClusterCtx(ctx, g, labels, m, budget, sum,
		BuildOpts{Workers: 1, ConfigKey: key})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rebuilt != m || st.Reused != 0 {
		t.Fatalf("initial build: rebuilt=%d reused=%d, want %d/0", st.Rebuilt, st.Reused, m)
	}
	if len(prev.Keys) != m {
		t.Fatalf("initial build recorded %d keys, want %d", len(prev.Keys), m)
	}

	targets := dropHalfOfPart(g, labels, 0)
	incr, st, err := BuildSummaryClusterCtx(ctx, g, labels, m, budget, sum,
		BuildOpts{Workers: 1, Targets: targets, ConfigKey: key, Prev: prev})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rebuilt != 1 || st.Reused != m-1 {
		t.Fatalf("incremental build: rebuilt=%d reused=%d, want 1/%d", st.Rebuilt, st.Reused, m-1)
	}
	if st.ReusedShards[0] {
		t.Error("shard 0 (the changed part) marked reused")
	}
	for i := 1; i < m; i++ {
		if !st.ReusedShards[i] {
			t.Errorf("shard %d not marked reused", i)
		}
		if incr.Machines[i] != prev.Machines[i] {
			t.Errorf("shard %d was not transplanted (machine pointer differs)", i)
		}
	}
	if incr.Machines[0] == prev.Machines[0] {
		t.Error("shard 0 kept the stale machine despite a changed target set")
	}

	// The from-scratch build of the identical configuration must agree
	// byte-for-byte on every shard — reuse is undetectable in the artifact.
	scratch, st2, err := BuildSummaryClusterCtx(ctx, g, labels, m, budget, sum,
		BuildOpts{Workers: 1, Targets: targets, ConfigKey: key})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Rebuilt != m {
		t.Fatalf("scratch build rebuilt %d shards, want %d", st2.Rebuilt, m)
	}
	for i := 0; i < m; i++ {
		a := summaryBytes(t, incr.Machines[i].Summary)
		b := summaryBytes(t, scratch.Machines[i].Summary)
		if !bytes.Equal(a, b) {
			t.Errorf("shard %d: transplanted artifact differs from from-scratch build", i)
		}
		if incr.Keys[i] != scratch.Keys[i] {
			t.Errorf("shard %d: key mismatch between incremental and scratch builds", i)
		}
	}
}

// TestIncrementalRebuildMinimalTargets pins the operator workflow the docs
// show: a target list naming only nodes of one part — without enumerating
// any other part — re-keys exactly that shard, because untouched parts
// keep their whole-part personalization.
func TestIncrementalRebuildMinimalTargets(t *testing.T) {
	g, labels, m, budget, base, key := incrementalInput(t, 25)
	sum := PegasusSummarizer(base)
	ctx := context.Background()
	prev, _, err := BuildSummaryClusterCtx(ctx, g, labels, m, budget, sum,
		BuildOpts{Workers: 1, ConfigKey: key})
	if err != nil {
		t.Fatal(err)
	}
	// Two nodes of part 2, nothing else.
	var targets []graph.NodeID
	for u := 0; u < g.NumNodes() && len(targets) < 2; u++ {
		if labels[u] == 2 {
			targets = append(targets, graph.NodeID(u))
		}
	}
	incr, st, err := BuildSummaryClusterCtx(ctx, g, labels, m, budget, sum,
		BuildOpts{Workers: 1, Targets: targets, ConfigKey: key, Prev: prev})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rebuilt != 1 || st.Reused != m-1 {
		t.Fatalf("minimal targets: rebuilt=%d reused=%d, want 1/%d", st.Rebuilt, st.Reused, m-1)
	}
	if st.ReusedShards[2] {
		t.Error("shard 2 (owning the targets) marked reused")
	}
	if incr.Machines[2] == prev.Machines[2] {
		t.Error("shard 2 kept the stale machine despite a changed target set")
	}
}

// TestIncrementalRebuildNoop: rebuilding with unchanged inputs transplants
// every shard and builds nothing.
func TestIncrementalRebuildNoop(t *testing.T) {
	g, labels, m, budget, base, key := incrementalInput(t, 22)
	sum := PegasusSummarizer(base)
	ctx := context.Background()
	prev, _, err := BuildSummaryClusterCtx(ctx, g, labels, m, budget, sum,
		BuildOpts{Workers: 1, ConfigKey: key})
	if err != nil {
		t.Fatal(err)
	}
	noop, st, err := BuildSummaryClusterCtx(ctx, g, labels, m, budget, sum,
		BuildOpts{Workers: 1, ConfigKey: key, Prev: prev})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rebuilt != 0 || st.Reused != m {
		t.Fatalf("noop rebuild: rebuilt=%d reused=%d, want 0/%d", st.Rebuilt, st.Reused, m)
	}
	for i := range noop.Machines {
		if noop.Machines[i] != prev.Machines[i] {
			t.Errorf("shard %d rebuilt on a no-op", i)
		}
	}
}

// TestIncrementalRebuildBudgetChangeRebuildsAll: the budget share is part
// of every shard's content key, so changing it invalidates all of them.
func TestIncrementalRebuildBudgetChangeRebuildsAll(t *testing.T) {
	g, labels, m, budget, base, key := incrementalInput(t, 23)
	sum := PegasusSummarizer(base)
	ctx := context.Background()
	prev, _, err := BuildSummaryClusterCtx(ctx, g, labels, m, budget, sum,
		BuildOpts{Workers: 1, ConfigKey: key})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := BuildSummaryClusterCtx(ctx, g, labels, m, 0.8*budget, sum,
		BuildOpts{Workers: 1, ConfigKey: key, Prev: prev})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rebuilt != m || st.Reused != 0 {
		t.Fatalf("budget change: rebuilt=%d reused=%d, want %d/0", st.Rebuilt, st.Reused, m)
	}
}

// TestIncrementalRebuildWithoutConfigKey: no key, no reuse — and no keys
// recorded on the result.
func TestIncrementalRebuildWithoutConfigKey(t *testing.T) {
	g, labels, m, budget, base, _ := incrementalInput(t, 24)
	sum := PegasusSummarizer(base)
	ctx := context.Background()
	prev, _, err := BuildSummaryClusterCtx(ctx, g, labels, m, budget, sum,
		BuildOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if prev.Keys != nil {
		t.Errorf("keyless build recorded keys: %v", prev.Keys)
	}
	_, st, err := BuildSummaryClusterCtx(ctx, g, labels, m, budget, sum,
		BuildOpts{Workers: 1, Prev: prev})
	if err != nil {
		t.Fatal(err)
	}
	if st.Reused != 0 || st.Rebuilt != m {
		t.Fatalf("keyless rebuild: rebuilt=%d reused=%d, want %d/0", st.Rebuilt, st.Reused, m)
	}
}

// TestGraphTokenDistinguishesGraphs guards the "graph generation" component
// of the content key: structurally different graphs must never share a
// token, and the token must be deterministic for one graph.
func TestGraphTokenDistinguishesGraphs(t *testing.T) {
	g1 := clusterGraph(31)
	g2 := clusterGraph(32)
	if GraphToken(g1) != GraphToken(g1) {
		t.Error("GraphToken not deterministic")
	}
	if GraphToken(g1) == GraphToken(g2) {
		t.Error("different graphs share a token")
	}
}

// TestContentKeyNormalization: a zero config and the explicitly-spelled
// paper defaults summarize identically, so they must share one key — and a
// custom Threshold policy must refuse to fingerprint.
func TestContentKeyNormalization(t *testing.T) {
	zero, ok := core.Config{Seed: 7}.ContentKey()
	if !ok {
		t.Fatal("zero config not fingerprintable")
	}
	spelled, ok := core.Config{
		Seed: 7, Alpha: 1.25, Beta: 0.1, MaxIter: 20,
		MaxGroupSize: 500, MaxSplitDepth: 10,
	}.ContentKey()
	if !ok {
		t.Fatal("spelled-out config not fingerprintable")
	}
	if zero != spelled {
		t.Errorf("zero and explicit-default configs differ:\n  %s\n  %s", zero, spelled)
	}
	changed, _ := core.Config{Seed: 7, Alpha: 1.5}.ContentKey()
	if changed == zero {
		t.Error("alpha change did not change the key")
	}
	if _, ok := (core.Config{Threshold: core.AdaptiveThreshold{Beta: 0.1}}).ContentKey(); ok {
		t.Error("custom Threshold policy claimed to be fingerprintable")
	}
}
