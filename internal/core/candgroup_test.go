package core

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"pegasus/internal/datasets"
	"pegasus/internal/gen"
	"pegasus/internal/graph"
)

// cliqueGraph builds k disjoint m-cliques: members of one clique share an
// identical closed neighborhood (the clique itself), members of different
// cliques share nothing — planted similarity 1 within and 0 across.
func cliqueGraph(k, m int) *graph.Graph {
	b := graph.NewBuilder(k * m)
	for c := 0; c < k; c++ {
		base := graph.NodeID(c * m)
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				b.AddEdge(base+graph.NodeID(i), base+graph.NodeID(j))
			}
		}
	}
	return b.Build()
}

func groupsEqual(a, b [][]uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestSortGroupingMatchesLegacyMap is the tentpole equivalence property:
// for every graph shape, seed and iteration — on the
// singleton state and after merges have killed slots — the sort-based
// pipeline must emit byte for byte the groups of the retained map-based
// reference. K20 forces the failed-split path (all closed neighborhoods
// identical, so every hash yields one shingle until the depth cap chops);
// the small MaxGroupSize forces the chop path on the clique graph too. The
// scale-tier S5 graphs at 10^4 and 10^5 nodes check the equivalence on
// heavy-tailed real-size inputs at the default group size and depth.
func TestSortGroupingMatchesLegacyMap(t *testing.T) {
	s5, err := datasets.ByShort("S5")
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int64{1, 9, 42}
	cases := []struct {
		name  string
		g     *graph.Graph
		cfg   Config
		seeds []int64
	}{
		{"ba300", gen.BarabasiAlbert(300, 3, 1), Config{}, seeds},
		{"cliques", cliqueGraph(40, 4), Config{MaxGroupSize: 8, MaxSplitDepth: 2}, seeds},
		{"k20", cliqueGraph(1, 20), Config{MaxGroupSize: 6, MaxSplitDepth: 3}, seeds},
		{"s5_10k", s5.Generate(0.1), Config{}, seeds},
		{"s5_100k", s5.Generate(1), Config{}, seeds[:1]},
	}
	for _, tc := range cases {
		for _, seed := range tc.seeds {
			cfg := tc.cfg
			cfg.Seed = seed
			e := newTestEngine(t, tc.g, cfg)
			// Kill a few slots so members/dead-slot handling is exercised.
			e.performMerge(0, 1)
			e.performMerge(2, 3)
			for iter := 1; iter <= 3; iter++ {
				e.rng = rand.New(rand.NewSource(seed))
				want := e.candidateGroupsLegacyMap(context.Background(), iter)
				e.rng = rand.New(rand.NewSource(seed))
				got := e.candidateGroups(context.Background(), iter)
				if !groupsEqual(got, want) {
					t.Fatalf("%s seed %d iter %d: sort-based groups differ from legacy map (%d vs %d groups)",
						tc.name, seed, iter, len(got), len(want))
				}
			}
		}
	}
}

// TestConfigRejectsBadCandidateKnobs pins the validation of the grouping
// knobs: negative MaxSplitDepth (previously only zero was defaulted, so -1
// silently degenerated every division into the random chop) and negative
// MaxIter.
func TestConfigRejectsBadCandidateKnobs(t *testing.T) {
	g := gen.BarabasiAlbert(50, 2, 1)
	bad := []Config{
		{MaxSplitDepth: -1},
		{MaxIter: -3},
	}
	for i, cfg := range bad {
		if _, err := cfg.withDefaults(g); err == nil {
			t.Errorf("case %d (%+v): invalid config accepted", i, cfg)
		}
	}
}

// TestContentKeyPinned: the content key of a default config is pinned
// literally. Existing .pgsum artifacts are filed under these strings, so
// any change to the format orphans every artifact on disk.
func TestContentKeyPinned(t *testing.T) {
	key := Config{Seed: 7}.ContentKey()
	const pinned = "pegasus1|a3ff4000000000000|b3fb999999999999a|i20|s7|g500|d10|c0|e0|rfalse"
	if key != pinned {
		t.Fatalf("content key changed:\n got %s\nwant %s", key, pinned)
	}
}

// candidateGroupsLegacyMap is the pre-sort, map-based grouping kept
// verbatim as the test oracle of the sort-based pipeline:
// TestSortGroupingMatchesLegacyMap checks that candidateGroups reproduces
// its output byte for byte (and the golden-fingerprint pins in
// parallel_test.go inherit from it).
func (e *engine) candidateGroupsLegacyMap(ctx context.Context, iter int) [][]uint32 {
	if e.cfg.RandomGroups {
		return e.randomGroups()
	}
	baseSeed := uint64(e.cfg.Seed)*0x9e3779b97f4a7c15 + uint64(iter)*0x100000001b3

	var result [][]uint32
	queue := []work{{slots: e.aliveSlots(), depth: 0}}

	// nodeMin per depth, computed lazily: all groups at the same depth share
	// one hash function.
	nodeMinByDepth := map[int][]uint64{}
	nodeMinAt := func(depth int) []uint64 {
		if nm, ok := nodeMinByDepth[depth]; ok {
			return nm
		}
		nm := make([]uint64, e.g.NumNodes())
		e.nodeShinglesInto(baseSeed+uint64(depth)*0x9e3779b1, nm)
		nodeMinByDepth[depth] = nm
		return nm
	}

	for len(queue) > 0 {
		w := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if len(w.slots) <= 1 {
			continue
		}
		if w.depth > 0 && len(w.slots) <= e.cfg.MaxGroupSize {
			result = append(result, w.slots)
			continue
		}
		if w.depth >= e.cfg.MaxSplitDepth {
			e.rng.Shuffle(len(w.slots), func(i, j int) {
				w.slots[i], w.slots[j] = w.slots[j], w.slots[i]
			})
			for start := 0; start < len(w.slots); start += e.cfg.MaxGroupSize {
				end := start + e.cfg.MaxGroupSize
				if end > len(w.slots) {
					end = len(w.slots)
				}
				if end-start > 1 {
					result = append(result, w.slots[start:end])
				}
			}
			continue
		}
		nm := nodeMinAt(w.depth)
		byShingle := make(map[uint64][]uint32)
		for _, a := range w.slots {
			f := superShingle(nm, e.members[a])
			byShingle[f] = append(byShingle[f], a)
		}
		if len(byShingle) == 1 {
			queue = append(queue, work{slots: w.slots, depth: w.depth + 1})
			continue
		}
		// Map iteration order is randomized; sort keys so runs with the same
		// seed produce the same groups in the same order.
		keys := make([]uint64, 0, len(byShingle))
		for f := range byShingle { //lint:ordered legacy reference implementation: keys are collected then sorted immediately below
			keys = append(keys, f)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, f := range keys {
			if grp := byShingle[f]; len(grp) > 1 {
				queue = append(queue, work{slots: grp, depth: w.depth + 1})
			}
		}
	}
	e.rng.Shuffle(len(result), func(i, j int) { result[i], result[j] = result[j], result[i] })
	return result
}
