package partition

import (
	"math/rand"

	"pegasus/internal/graph"
)

// Social hash partitioner variants [42]. All three minimize query fanout —
// the number of distinct machines a node's neighborhood spans — under a
// strict balance constraint; they differ in local-search strength:
//
//   - SHP-I:  one-sided fanout-gain moves, matched pairwise (probabilistic
//     greedy of the original paper);
//   - SHP-II: SHP-I preceded by an edge-cut warm start, giving the
//     second-order variant a better basin;
//   - SHP-KL: SHP-I with Kernighan–Lin-style alternation between fanout and
//     edge-cut objectives across rounds, escaping fanout-flat plateaus.
//
// These are clean-room reimplementations of the published ideas (see
// DESIGN.md "Partitioning baselines"); Fig. 12 treats them as a family of
// partitioning baselines.

// fanoutGain computes the exact change in total fanout if u moves from part
// a to part b: every neighbor v loses a fanout unit if u was its only
// neighbor in a, and gains one if it had none in b. Positive = improvement.
func fanoutGain(npc *neighborPartCounts, g *graph.Graph, u graph.NodeID, a, b uint32) float64 {
	gain := 0.0
	for _, v := range g.Neighbors(u) {
		if npc.get(v, a) == 1 {
			gain++
		}
		if npc.get(v, b) == 0 {
			gain--
		}
	}
	return gain
}

// SHPI partitions g into m balanced parts minimizing fanout.
func SHPI(g *graph.Graph, m int, cfg BLPConfig) []uint32 {
	cfg = cfg.withDefaults()
	labels := RandomBalanced(g.NumNodes(), m, cfg.Seed)
	npc := newNeighborPartCounts(g, labels, m)
	gain := func(u graph.NodeID, from, to uint32) float64 {
		return fanoutGain(npc, g, u, from, to)
	}
	return constrainedSearch(g, labels, m, cfg.Iterations, gain, npc)
}

// SHPII partitions g into m balanced parts: an edge-cut warm start (half the
// budgeted rounds of BLP-style moves) followed by fanout refinement.
func SHPII(g *graph.Graph, m int, cfg BLPConfig) []uint32 {
	cfg = cfg.withDefaults()
	labels := RandomBalanced(g.NumNodes(), m, cfg.Seed)
	npc := newNeighborPartCounts(g, labels, m)
	cutGain := func(u graph.NodeID, from, to uint32) float64 {
		return float64(npc.get(u, to) - npc.get(u, from))
	}
	half := cfg.Iterations / 2
	if half < 1 {
		half = 1
	}
	labels = constrainedSearch(g, labels, m, half, cutGain, npc)
	foGain := func(u graph.NodeID, from, to uint32) float64 {
		return fanoutGain(npc, g, u, from, to)
	}
	return constrainedSearch(g, labels, m, cfg.Iterations-half+1, foGain, npc)
}

// SHPKL partitions g into m balanced parts, alternating fanout and edge-cut
// objectives between rounds (Kernighan–Lin-style objective cycling).
func SHPKL(g *graph.Graph, m int, cfg BLPConfig) []uint32 {
	cfg = cfg.withDefaults()
	labels := RandomBalanced(g.NumNodes(), m, cfg.Seed)
	npc := newNeighborPartCounts(g, labels, m)
	cutGain := func(u graph.NodeID, from, to uint32) float64 {
		return float64(npc.get(u, to) - npc.get(u, from))
	}
	foGain := func(u graph.NodeID, from, to uint32) float64 {
		return fanoutGain(npc, g, u, from, to)
	}
	for r := 0; r < cfg.Iterations; r++ {
		if r%2 == 0 {
			labels = constrainedSearch(g, labels, m, 1, foGain, npc)
		} else {
			labels = constrainedSearch(g, labels, m, 1, cutGain, npc)
		}
	}
	return labels
}

// Method names a partitioning algorithm for the experiment harness.
type Method string

// Supported partitioning methods.
const (
	MethodLouvain Method = "louvain"
	MethodBLP     Method = "blp"
	MethodSHPI    Method = "shpi"
	MethodSHPII   Method = "shpii"
	MethodSHPKL   Method = "shpkl"
	MethodRandom  Method = "random"
)

// Methods lists the partitioners compared in Fig. 12 (Louvain drives the
// PeGaSus/SSumM clusters; the rest are subgraph baselines).
var Methods = []Method{MethodLouvain, MethodBLP, MethodSHPI, MethodSHPII, MethodSHPKL}

// Partition dispatches by method name, always returning exactly m balanced
// parts.
func Partition(g *graph.Graph, m int, method Method, seed int64) []uint32 {
	switch method {
	case MethodLouvain:
		comm := Louvain(g, LouvainConfig{Seed: seed})
		return BalancedFromCommunities(comm, m, seed)
	case MethodBLP:
		return BLP(g, m, BLPConfig{Seed: seed})
	case MethodSHPI:
		return SHPI(g, m, BLPConfig{Seed: seed})
	case MethodSHPII:
		return SHPII(g, m, BLPConfig{Seed: seed})
	case MethodSHPKL:
		return SHPKL(g, m, BLPConfig{Seed: seed})
	case MethodRandom:
		return RandomBalanced(g.NumNodes(), m, seed)
	default:
		// Unknown methods degrade to a random balanced partition rather
		// than failing an experiment sweep.
		rng := rand.New(rand.NewSource(seed))
		_ = rng
		return RandomBalanced(g.NumNodes(), m, seed)
	}
}
