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
	"cmp"
	"fmt"
	"iter"
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

// count is one entry of a supernode's neighbour list: e edges to supernode
// x (to itself when x is the list's own supernode: its intra edges, each
// counted once).
type count struct {
	x uint32
	e float64
}

// pair is a supernode's count on each of two lists (0 where absent).
type pair struct{ a, b float64 }

// union yields every supernode x on the sorted neighbour list la or lb with
// its count on each, in ascending order of x: one merged pass.
func union(la, lb []count) iter.Seq2[uint32, pair] {
	return func(yield func(uint32, pair) bool) {
		i, j := 0, 0
		for i < len(la) || j < len(lb) {
			var x uint32
			var e pair
			switch {
			case j == len(lb) || (i < len(la) && la[i].x < lb[j].x):
				x, e.a = la[i].x, la[i].e
				i++
			case i == len(la) || lb[j].x < la[i].x:
				x, e.b = lb[j].x, lb[j].e
				j++
			default:
				x, e = la[i].x, pair{la[i].e, lb[j].e}
				i++
				j++
			}
			if !yield(x, e) {
				return
			}
		}
	}
}

// set gives supernode x the count e on list l, keeping l sorted.
func set(l []count, x uint32, e float64) []count {
	i, ok := slices.BinarySearchFunc(l, x, func(c count, x uint32) int { return cmp.Compare(c.x, x) })
	if ok {
		l[i].e = e
		return l
	}
	return slices.Insert(l, i, count{x, e})
}

// drop removes supernode x from list l, if present.
func drop(l []count, x uint32) []count {
	i, ok := slices.BinarySearchFunc(l, x, func(c count, x uint32) int { return cmp.Compare(c.x, x) })
	if !ok {
		return l
	}
	return slices.Delete(l, i, i+1)
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
	// Edge counts between supernodes: per slot, a list sorted by neighbour
	// with positive counts only. The lists start as the graph's sorted
	// adjacency lists, cut from one backing array with their capacity
	// capped so growing one list never overwrites the next.
	adj := make([][]count, n)
	backing := make([]count, 0, 2*g.NumEdges())
	for u := 0; u < n; u++ {
		superOf[u] = uint32(u)
		size[u] = 1
		members[u] = []graph.NodeID{graph.NodeID(u)}
		off := len(backing)
		for _, v := range g.Neighbors(graph.NodeID(u)) {
			backing = append(backing, count{uint32(v), 1})
		}
		adj[u] = backing[off:len(backing):len(backing)]
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
	// and with them the merges picked, are a function of the input alone.
	deltaErr := func(a, b uint32) float64 {
		var before, after, aa, bb, ab float64
		sizeC := size[a] + size[b]
		for x, e := range union(adj[a], adj[b]) {
			switch x {
			case a:
				aa = e.a
			case b:
				ab, bb = e.a, e.b
			default:
				// A block to a neighbour of only one side adds +0 for the other.
				before += blockErr(e.a, pairs(a, x)) + blockErr(e.b, pairs(b, x))
				after += blockErr(e.a+e.b, sizeC*size[x])
			}
		}
		// Intra block of the merged supernode: intra(a) + intra(b) + cross.
		eIntra := aa + bb + ab
		before += blockErr(aa, pairs(a, a)) +
			blockErr(bb, pairs(b, b)) +
			blockErr(ab, pairs(a, b))
		after += blockErr(eIntra, sizeC*(sizeC-1)/2)
		return after - before
	}

	// merge folds b's counts into a: a's list becomes the sum of both lists
	// without a and b, plus the merged intra count, and every neighbour of
	// b relabels its entry for b as a. merged is its scratch.
	var merged []count
	merge := func(a, b uint32) {
		var aa, bb, ab float64
		merged = merged[:0]
		for x, e := range union(adj[a], adj[b]) {
			switch {
			case x == a:
				aa = e.a
			case x == b:
				ab, bb = e.a, e.b
			case e.b == 0:
				merged = append(merged, count{x, e.a})
			default:
				merged = append(merged, count{x, e.a + e.b})
				adj[x] = set(drop(adj[x], b), a, e.a+e.b)
			}
		}
		if eIntra := aa + bb + ab; eIntra > 0 {
			merged = set(merged, a, eIntra)
		}
		adj[a] = append(adj[a][:0], merged...)
		adj[b] = nil
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
