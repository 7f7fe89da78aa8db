// Package kgrass reimplements k-GraSS (LeFevre & Terzi, "GraSS: Graph
// Structure Summarization", SDM 2010) with the SamplePairs strategy used in
// the paper's evaluation (§V-A: "we used the SamplePairs method with
// c = 1.0").
//
// GraSS greedily merges supernodes until a target count k remains, at each
// step sampling c·n candidate pairs (n = current supernode count) and
// merging the pair whose merger increases the expected L1 reconstruction
// error the least. Its summary lifts the adjacency matrix to supernode
// blocks with density weights, adding superedges without selection — which
// is why its summaries are dense and slow to query (Fig. 8).
package kgrass

import (
	"fmt"
	"math/rand"
	"slices"

	"pegasus/internal/graph"
	"pegasus/internal/summary"
)

// Config parameterizes Summarize.
type Config struct {
	// TargetSupernodes is the desired |S| (the paper sweeps 10%..90% of
	// |V|).
	TargetSupernodes int
	// C scales the number of sampled pairs per step (default 1.0).
	C float64
	// Seed drives sampling.
	Seed int64
}

// blockErr is the expected L1 error of encoding a block with e edges out of
// n possible pairs by its density e/n: Σ|A_uv − p| = 2·e·(n−e)/n.
func blockErr(e, n float64) float64 {
	if n <= 0 {
		return 0
	}
	return 2 * e * (n - e) / n
}

// Summarize runs k-GraSS on g.
func Summarize(g *graph.Graph, cfg Config) (*summary.Summary, error) {
	n := g.NumNodes()
	if cfg.TargetSupernodes < 1 || cfg.TargetSupernodes > n {
		return nil, fmt.Errorf("kgrass: TargetSupernodes must be in [1,%d], got %d", n, cfg.TargetSupernodes)
	}
	if cfg.C == 0 {
		cfg.C = 1.0
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	superOf := make([]uint32, n)
	size := make([]float64, n) // supernode sizes
	members := make([][]graph.NodeID, n)
	// edge counts between supernodes: per-slot adjacency count map. For the
	// intra count, key == slot (each intra edge counted once).
	cnt := make([]map[uint32]float64, n)
	for u := 0; u < n; u++ {
		superOf[u] = uint32(u)
		size[u] = 1
		members[u] = []graph.NodeID{graph.NodeID(u)}
		cnt[u] = make(map[uint32]float64, g.Degree(graph.NodeID(u)))
		for _, v := range g.Neighbors(graph.NodeID(u)) {
			cnt[u][uint32(v)] = 1
		}
	}
	alive := make([]uint32, n)
	for i := range alive {
		alive[i] = uint32(i)
	}

	pairs := func(a, b uint32) float64 {
		if a == b {
			return size[a] * (size[a] - 1) / 2
		}
		return size[a] * size[b]
	}

	// deltaErr evaluates the error increase of merging a and b. It sums the
	// blocks to their neighbours in ascending supernode order, so the sums,
	// and with them the merges picked, do not depend on map order; keys is
	// its scratch.
	var keys []uint32
	deltaErr := func(a, b uint32) float64 {
		keys = keys[:0]
		for x := range cnt[a] { //lint:ordered keys are sorted immediately below
			keys = append(keys, x)
		}
		for x := range cnt[b] { //lint:ordered keys are sorted immediately below
			keys = append(keys, x)
		}
		slices.Sort(keys)
		keys = slices.Compact(keys)
		before := 0.0
		after := 0.0
		sizeC := size[a] + size[b]
		// Blocks to common/cross neighbors; a block with no edges adds +0.
		for _, x := range keys {
			if x == a || x == b {
				continue
			}
			ea, eb := cnt[a][x], cnt[b][x]
			before += blockErr(ea, pairs(a, x)) + blockErr(eb, pairs(b, x))
			after += blockErr(ea+eb, sizeC*size[x])
		}
		// Intra block of the merged supernode: intra(a) + intra(b) + cross.
		eIntra := cnt[a][a] + cnt[b][b] + cnt[a][b]
		before += blockErr(cnt[a][a], pairs(a, a)) +
			blockErr(cnt[b][b], pairs(b, b)) +
			blockErr(cnt[a][b], pairs(a, b))
		after += blockErr(eIntra, sizeC*(sizeC-1)/2)
		return after - before
	}

	merge := func(a, b uint32) {
		// Fold b's counts into a.
		eIntra := cnt[a][a] + cnt[b][b] + cnt[a][b]
		delete(cnt[a], b)
		delete(cnt[b], a)
		//lint:ordered each key x ∉ {a,b} updates only cnt[a][x] and cnt[x]
		for x, eb := range cnt[b] {
			if x == b {
				continue
			}
			cnt[a][x] += eb
			delete(cnt[x], b)
			if x != a {
				cnt[x][a] = cnt[a][x]
			}
		}
		if eIntra > 0 {
			cnt[a][a] = eIntra
		} else {
			delete(cnt[a], a)
		}
		cnt[b] = nil
		for _, u := range members[b] {
			superOf[u] = a
		}
		members[a] = append(members[a], members[b]...)
		members[b] = nil
		size[a] += size[b]
		size[b] = 0
	}

	for len(alive) > cfg.TargetSupernodes {
		nSamples := int(cfg.C * float64(len(alive)))
		if nSamples < 1 {
			nSamples = 1
		}
		bestDelta := 0.0
		var bestA, bestB uint32
		found := false
		for i := 0; i < nSamples; i++ {
			ai := rng.Intn(len(alive))
			bi := rng.Intn(len(alive) - 1)
			if bi >= ai {
				bi++
			}
			a, b := alive[ai], alive[bi]
			d := deltaErr(a, b)
			if !found || d < bestDelta {
				bestDelta, bestA, bestB, found = d, a, b, true
			}
		}
		if !found {
			break
		}
		merge(bestA, bestB)
		// Swap-remove bestB from alive.
		for i, x := range alive {
			if x == bestB {
				alive[i] = alive[len(alive)-1]
				alive = alive[:len(alive)-1]
				break
			}
		}
	}
	return summary.FromPartitionDensity(g, superOf), nil
}
