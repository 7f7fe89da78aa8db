package core

import (
	"context"
	"hash/fnv"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"pegasus/internal/gen"
	"pegasus/internal/graph"
	"pegasus/internal/summary"
)

// fingerprintSummary hashes the node→supernode assignment and the superedge
// adjacency into one value: equal fingerprints mean structurally identical
// summaries.
func fingerprintSummary(s *summary.Summary) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put32 := func(x uint32) {
		buf[0] = byte(x)
		buf[1] = byte(x >> 8)
		buf[2] = byte(x >> 16)
		buf[3] = byte(x >> 24)
		h.Write(buf[:])
	}
	for u := 0; u < s.NumNodes(); u++ {
		put32(s.Supernode(graph.NodeID(u)))
	}
	for a := 0; a < s.NumSupernodes(); a++ {
		var nbrs []uint32
		s.ForEachSuperNeighbor(uint32(a), func(b uint32, _ float64) {
			nbrs = append(nbrs, b)
		})
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
		put32(uint32(a))
		for _, b := range nbrs {
			put32(b)
		}
	}
	return h.Sum64()
}

// Golden fingerprints of the sequential implementation (captured from the
// legacy merge loop after the BarabasiAlbert generator was made
// deterministic). They pin the engine to the legacy sequential path: any
// change to sampling, deduplication, scoring order or mass reuse that
// alters the result breaks these.
func TestSequentialGoldens(t *testing.T) {
	t.Run("ba400-uniform", func(t *testing.T) {
		g := gen.BarabasiAlbert(400, 3, 1)
		var merges []int
		res, err := Summarize(g, Config{BudgetRatio: 0.4, Seed: 42,
			Trace: func(s IterStats) { merges = append(merges, s.Merges) }})
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprintSummary(res.Summary); got != 0xaa434f33b89b2e40 {
			t.Errorf("fingerprint = %#x, want 0xaa434f33b89b2e40", got)
		}
		// The per-iteration merge counts are part of the golden: deduping
		// re-drawn pairs must not change which merges happen (duplicate
		// evaluations re-score identical masses and can never win the
		// strict-greater argmax).
		wantMerges := []int{0, 20, 12, 6, 10, 20, 15, 12, 12, 24, 13, 13, 4, 31}
		if !reflect.DeepEqual(merges, wantMerges) {
			t.Errorf("per-iteration merges = %v, want %v", merges, wantMerges)
		}
	})
	t.Run("sbm240-personalized", func(t *testing.T) {
		g := gen.PlantedPartition(gen.SBMConfig{Nodes: 240, Communities: 4, AvgDegree: 12, MixingP: 0.08}, 1)
		lcc, _ := graph.LargestComponent(g)
		var merges []int
		res, err := Summarize(lcc, Config{Targets: []graph.NodeID{0, 1, 2}, Alpha: 1.5,
			BudgetRatio: 0.35, Seed: 7,
			Trace: func(s IterStats) { merges = append(merges, s.Merges) }})
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprintSummary(res.Summary); got != 0x432fb747d9240303 {
			t.Errorf("fingerprint = %#x, want 0x432fb747d9240303", got)
		}
		wantMerges := []int{8, 19, 13, 8, 5, 7, 5, 3, 2, 7, 2, 10, 9, 18, 1}
		if !reflect.DeepEqual(merges, wantMerges) {
			t.Errorf("per-iteration merges = %v, want %v", merges, wantMerges)
		}
	})
	t.Run("ssumm300-preset", func(t *testing.T) {
		g := gen.BarabasiAlbert(300, 4, 9)
		res, err := Summarize(g, Config{BudgetRatio: 0.3, Seed: 11,
			Encoding: BestOfTwo, Threshold: FixedSchedule, Alpha: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprintSummary(res.Summary); got != 0x23d59a266a88b3af {
			t.Errorf("fingerprint = %#x, want 0x23d59a266a88b3af", got)
		}
	})
	// Shaped like one perfbench shard (BA m=8, budget 0.5, α 1.25, ~0.5% of
	// V as targets): hubs grow supernodes with hundreds of superedges, which
	// is where the sorted superedge lists do the most inserts and deletes.
	t.Run("ba2000m8-hubs", func(t *testing.T) {
		g := gen.BarabasiAlbert(2000, 8, 8)
		var merges []int
		res, err := Summarize(g, Config{
			Targets: []graph.NodeID{235, 261, 454, 687, 705, 883, 952, 1261, 1388, 1803},
			Alpha:   1.25, BudgetRatio: 0.5, Seed: 8,
			Trace: func(s IterStats) { merges = append(merges, s.Merges) }})
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprintSummary(res.Summary); got != 0xb8e7603a5d64d38e {
			t.Errorf("fingerprint = %#x, want 0xb8e7603a5d64d38e", got)
		}
		wantMerges := []int{0, 38, 46, 48, 42, 32, 42, 96, 139, 54, 38}
		if !reflect.DeepEqual(merges, wantMerges) {
			t.Errorf("per-iteration merges = %v, want %v", merges, wantMerges)
		}
	})
}

// TestParallelSummarizeRace runs concurrent engines over one shared input
// graph, as concurrent shard builds do, under the race detector: an engine
// must only read the graph. Each build must also match the same build run
// alone.
func TestParallelSummarizeRace(t *testing.T) {
	g := gen.BarabasiAlbert(400, 3, 5)
	cfgs := make([]Config, 4)
	for i := range cfgs {
		cfgs[i] = Config{Targets: []graph.NodeID{graph.NodeID(i)}, BudgetRatio: 0.4, Seed: int64(i), RandomGroups: i%2 == 1}
	}
	var wg sync.WaitGroup
	got := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = Summarize(g, cfg)
		}()
	}
	wg.Wait()
	for i, cfg := range cfgs {
		if errs[i] != nil {
			t.Fatalf("concurrent summarize %d: %v", i, errs[i])
		}
		alone, err := Summarize(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprintSummary(got[i].Summary) != fingerprintSummary(alone.Summary) {
			t.Errorf("build %d differs when run beside the others", i)
		}
	}
}

func TestSummarizeCtxCancellation(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 4, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SummarizeCtx(ctx, g, Config{BudgetRatio: 0.2, Seed: 1}); err != context.Canceled {
		t.Fatalf("pre-cancelled context: err = %v, want context.Canceled", err)
	}
}

// TestConfigRejectsNonFiniteValues: NaN fails every range comparison and
// +Inf passes the lower bounds, so each must be rejected explicitly. A NaN
// α would run every iteration without a merge and report the budget met,
// and a NaN budget would return the unsummarized graph.
func TestConfigRejectsNonFiniteValues(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 12)
	nan, inf := math.NaN(), math.Inf(1)
	for _, cfg := range []Config{
		{Beta: nan},
		{Alpha: nan},
		{Alpha: inf},
		{Alpha: -inf},
		{BudgetRatio: nan},
		{BudgetRatio: inf},
		{BudgetRatio: -inf},
		{BudgetBits: nan},
		{BudgetBits: inf},
		{BudgetBits: -inf},
	} {
		if _, err := cfg.withDefaults(g); err == nil {
			t.Errorf("withDefaults accepted invalid config %+v", cfg)
		}
		if _, err := Summarize(g, cfg); err == nil {
			t.Errorf("Summarize accepted invalid config %+v", cfg)
		}
	}
	// SummarizeNonPersonalized sets α itself but must still check the budget.
	if _, err := SummarizeNonPersonalized(g, Config{BudgetRatio: nan}); err == nil {
		t.Error("SummarizeNonPersonalized accepted a NaN BudgetRatio")
	}
}
