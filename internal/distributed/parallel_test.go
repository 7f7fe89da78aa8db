package distributed

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"pegasus/internal/core"
	"pegasus/internal/graph"
	"pegasus/internal/partition"
	"pegasus/internal/summary"
)

// TestRouteMachineRejectsOutOfRangeLabel is the regression test for the
// bounds-check bug: an Assign table with labels >= len(Machines) — possible
// on hand-assembled or deserialized clusters — must error on the serving
// path instead of panicking with an index out of range.
func TestRouteMachineRejectsOutOfRangeLabel(t *testing.T) {
	c := &Cluster{
		Assign:   []uint32{0, 5, 1},
		Machines: []*Machine{{}, {}},
	}
	if _, err := c.RouteMachine(0); err != nil {
		t.Fatalf("in-range label errored: %v", err)
	}
	m, err := c.RouteMachine(1)
	if err == nil {
		t.Fatalf("label 5 with 2 machines returned machine %v, want error", m)
	}
	if !strings.Contains(err.Error(), "machine 5") {
		t.Errorf("error %q does not name the offending machine", err)
	}
	// The query-dispatch helpers route through RouteMachine and must
	// propagate the error too.
	if _, err := c.HOP(1); err == nil {
		t.Error("HOP on an out-of-range label did not error")
	}
}

// TestParallelClusterBuildMatchesSequential: the §IV builds are independent,
// so concurrent shard construction must produce byte-for-byte the same
// machines as the sequential loop.
func TestParallelClusterBuildMatchesSequential(t *testing.T) {
	g := clusterGraph(11)
	m := 4
	labels := partition.Partition(g, m, partition.MethodLouvain, 2)
	budget := 0.5 * g.SizeBits()
	sum := PegasusSummarizer(core.Config{Seed: 3})

	seq, _, err := BuildSummaryClusterCtx(context.Background(), g, labels, m, budget, sum, BuildOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		par, _, err := BuildSummaryClusterCtx(context.Background(), g, labels, m, budget, sum, BuildOpts{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range seq.Machines {
			a, b := seq.Machines[i].Summary, par.Machines[i].Summary
			if !summariesEqual(a, b) {
				t.Errorf("workers=%d: machine %d summary differs from sequential build", workers, i)
			}
		}
	}
}

func summariesEqual(a, b *summary.Summary) bool {
	if a.NumNodes() != b.NumNodes() || a.NumSupernodes() != b.NumSupernodes() ||
		a.NumSuperedges() != b.NumSuperedges() {
		return false
	}
	for u := 0; u < a.NumNodes(); u++ {
		if a.Supernode(graph.NodeID(u)) != b.Supernode(graph.NodeID(u)) {
			return false
		}
	}
	equal := true
	for s := 0; s < a.NumSupernodes() && equal; s++ {
		na := map[uint32]bool{}
		a.ForEachSuperNeighbor(uint32(s), func(x uint32, _ float64) { na[x] = true })
		b.ForEachSuperNeighbor(uint32(s), func(x uint32, _ float64) {
			if !na[x] {
				equal = false
			}
			delete(na, x)
		})
		if len(na) != 0 {
			equal = false
		}
	}
	return equal
}

// TestBuildSummaryClusterFirstError: one failing shard cancels the rest and
// its error (not the cancellation fallout) is reported.
func TestBuildSummaryClusterFirstError(t *testing.T) {
	g := clusterGraph(12)
	m := 4
	labels := partition.RandomBalanced(g.NumNodes(), m, 1)
	boom := errors.New("boom")
	var calls sync.Map
	sum := func(ctx context.Context, gg *graph.Graph, targets []graph.NodeID, budget float64) (*summary.Summary, error) {
		shard := int(labels[targets[0]])
		calls.Store(shard, true)
		if shard == 2 {
			return nil, boom
		}
		// Non-failing shards wait on cancellation or time out the test.
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return nil, errors.New("cancellation never arrived")
		}
	}
	_, _, err := BuildSummaryClusterCtx(context.Background(), g, labels, m, 0.5*g.SizeBits(), sum, BuildOpts{Workers: m})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "machine 2") {
		t.Errorf("error %q does not name the failing machine", err)
	}
}

func TestBuildSummaryClusterCtxCancelled(t *testing.T) {
	g := clusterGraph(13)
	m := 2
	labels := partition.RandomBalanced(g.NumNodes(), m, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := BuildSummaryClusterCtx(ctx, g, labels, m, 0.5*g.SizeBits(),
		PegasusSummarizer(core.Config{Seed: 1}), BuildOpts{Workers: m})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestConcurrentClusterBuildsRace drives several whole-cluster builds at
// once — the server's hot-rebuild pattern — under the race detector.
func TestConcurrentClusterBuildsRace(t *testing.T) {
	g := clusterGraph(14)
	m := 2
	labels := partition.Partition(g, m, partition.MethodLouvain, 3)
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < len(errs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = BuildSummaryClusterCtx(context.Background(), g, labels, m,
				0.5*g.SizeBits(), PegasusSummarizer(core.Config{Seed: int64(i)}), BuildOpts{Workers: m})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("concurrent build %d: %v", i, err)
		}
	}
}

// TestBuildSummaryClusterRejectsZeroMachines guards the new m validation.
func TestBuildSummaryClusterRejectsZeroMachines(t *testing.T) {
	g := clusterGraph(15)
	if _, err := BuildSummaryCluster(g, make([]uint32, g.NumNodes()), 0, 100,
		PegasusSummarizer(core.Config{})); err == nil {
		t.Error("m=0 accepted")
	}
}
