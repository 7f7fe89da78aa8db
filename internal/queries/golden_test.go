package queries

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"pegasus/internal/core"
	"pegasus/internal/gen"
	"pegasus/internal/graph"
	"pegasus/internal/summary"
)

// goldenTargets are the target nodes of goldenFixture's summary.
var goldenTargets = []graph.NodeID{0, 1, 2, 3, 4, 5, 6, 7, 150, 152}

// goldenGraph is a BA graph with two isolated nodes (150, 151: dead ends
// for RWR and PHP) and a 4-node path component (152–155) cut off from the
// giant component.
func goldenGraph() *graph.Graph {
	b := graph.NewBuilder(156)
	b.AddEdges(gen.BarabasiAlbert(150, 3, 17).EdgeList())
	b.AddEdge(152, 153)
	b.AddEdge(153, 154)
	b.AddEdge(154, 155)
	return b.Build()
}

// goldenFixture returns goldenGraph and a PeGaSus summary of it
// personalized to ten targets at 40% of its size.
func goldenFixture(t *testing.T) (*graph.Graph, *summary.Summary) {
	t.Helper()
	g := goldenGraph()
	res, err := core.Summarize(g, core.Config{
		Targets:     goldenTargets,
		BudgetRatio: 0.4,
		Seed:        17,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, res.Summary
}

// goldenWeighted returns a density-weighted summary of goldenGraph, the
// output form of the k-GraSS, S2L and SAAGs baselines. The BA nodes fall
// into 40 supernodes by u mod 40, ten of which carry a self-loop of weight
// 1/6 or 1/3 beside their other superedges; the two isolated nodes share a
// supernode with no superedges; and the path component is one supernode
// whose only superedge is a self-loop of weight 1/2 (3 of its 6 member
// pairs are edges).
func goldenWeighted(g *graph.Graph) *summary.Summary {
	superOf := make([]uint32, g.NumNodes())
	for u := range superOf {
		switch {
		case u < 150:
			superOf[u] = uint32(u % 40)
		case u < 152:
			superOf[u] = 40
		default:
			superOf[u] = 41
		}
	}
	return summary.FromPartitionDensity(g, superOf)
}

// vectorsDigest hashes the exact bits of a sequence of answer vectors.
func vectorsDigest(vs [][]float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range vs {
		for _, x := range v {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// distsDigest hashes the exact values of a sequence of hop-distance
// vectors.
func distsDigest(ds [][]int32) string {
	h := sha256.New()
	var buf [4]byte
	for _, d := range ds {
		for _, x := range d {
			binary.LittleEndian.PutUint32(buf[:], uint32(x))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// lowRatioFixture returns a Barabási–Albert graph of 300 nodes (8 edges per
// new node) and a non-personalized PeGaSus summary of it at 10% of its
// size. At that budget most nodes share a supernode with others, and
// supernodes of 46, 21 and 8 members keep superedges.
func lowRatioFixture(t *testing.T) (*graph.Graph, *summary.Summary) {
	t.Helper()
	g := gen.BarabasiAlbert(300, 8, 17)
	res, err := core.Summarize(g, core.Config{BudgetRatio: 0.1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	return g, res.Summary
}

// middleMembers returns, for every supernode of s with at least three
// members and a superedge, its member at the middle rank (neither its
// lowest nor its highest node), in supernode order.
func middleMembers(s *summary.Summary) []graph.NodeID {
	var out []graph.NodeID
	for a := 0; a < s.NumSupernodes(); a++ {
		if m := s.Members(uint32(a)); len(m) >= 3 && s.SuperDegree(uint32(a)) > 0 {
			out = append(out, m[len(m)/2])
		}
	}
	return out
}

// TestQueryGoldens pins the exact answers of the RWR, PHP and HOP kernels,
// on the input graph, on a PeGaSus summary of it and on a density-weighted
// summary of it, as SHA-256 digests over the float64 bits of every score
// vector and the values of every distance vector. The query set covers a
// node with no neighbors in the graph (a dead end for both evaluators) and
// a node whose supernode has no superedges (a dead end on the summary
// only). The PeGaSus summary's weights are all 1; the weighted one carries
// self-loops of other weights, which is what the kernels' self-loop
// correction (u is not its own neighbor) multiplies. A second pair of
// summaries, at 10% of a denser graph's size, has supernodes of up to 46
// members with superedges, and its queries put q at the middle rank of
// each multi-member supernode.
// Any change to the kernels' arithmetic, iteration order or start vector
// moves a digest. A refactor must leave every digest as it is; a change
// that alters answers on purpose (a new start vector, say) updates them and
// says why.
func TestQueryGoldens(t *testing.T) {
	g, s := goldenFixture(t)
	qs := []graph.NodeID{0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 120, 144, 149, 150, 151, 152, 155}
	if g.Degree(150) != 0 {
		t.Fatal("node 150 must be isolated in the golden graph")
	}
	bare := noSuperedgeNode(g, s)
	if bare < 0 {
		t.Fatal("the golden summary has no non-isolated node whose supernode lacks superedges")
	}
	qs = append(qs, graph.NodeID(bare))
	ws := goldenWeighted(g)
	if err := ws.Validate(); err != nil {
		t.Fatal(err)
	}
	if w, ok := ws.HasSuperedge(ws.Supernode(152), ws.Supernode(152)); !ok || w != 0.5 {
		t.Fatalf("the path's supernode must carry a self-loop of weight 0.5, got %v, %v", w, ok)
	}
	if ws.SuperDegree(ws.Supernode(150)) != 0 {
		t.Fatal("the isolated nodes' supernode must have no superedges in the weighted summary")
	}

	var gr, gp, sr, sp, wr, wp [][]float64
	var gh, sh, wh [][]int32
	for _, q := range qs {
		d, err := GraphHOP(g, q)
		if err != nil {
			t.Fatal(err)
		}
		gh = append(gh, d)
		if d, err = SummaryHOP(s, q); err != nil {
			t.Fatal(err)
		}
		sh = append(sh, d)
		if d, err = SummaryHOP(ws, q); err != nil {
			t.Fatal(err)
		}
		wh = append(wh, d)

		v, err := GraphRWR(g, q, RWRConfig{})
		if err != nil {
			t.Fatal(err)
		}
		gr = append(gr, v)
		if v, err = GraphPHP(g, q, PHPConfig{}); err != nil {
			t.Fatal(err)
		}
		gp = append(gp, v)
		if v, err = SummaryRWR(s, q, RWRConfig{}); err != nil {
			t.Fatal(err)
		}
		sr = append(sr, v)
		if v, err = SummaryPHP(s, q, PHPConfig{}); err != nil {
			t.Fatal(err)
		}
		sp = append(sp, v)
		if v, err = SummaryRWR(ws, q, RWRConfig{}); err != nil {
			t.Fatal(err)
		}
		wr = append(wr, v)
		if v, err = SummaryPHP(ws, q, PHPConfig{}); err != nil {
			t.Fatal(err)
		}
		wp = append(wp, v)
	}

	for _, c := range []struct {
		name string
		vs   [][]float64
		want string
	}{
		{"GraphRWR", gr, "66be4b85cec2aeee5e6af4a22d537d2604320aefbbc7c41dea1a4d52ca3f58c5"},
		{"GraphPHP", gp, "0e19ac707c31412ed93ee0982430491b33c297a970b360e128bd22428a291194"},
		{"SummaryRWR", sr, "a41a53c6ae8fe08e2bdb50fa5e26a7eb8ece5c9ab1844d6b5784ee9f08377231"},
		{"SummaryPHP", sp, "a320c2b5a45e7f553c576dc26e3c22ebe6ec7d31fa6261dd022d465162ed12b4"},
		{"WeightedSummaryRWR", wr, "1fbf80f27e96d720f3e5aa58edef077e51e773e7e0894de3dfc8ca0dbc215b14"},
		{"WeightedSummaryPHP", wp, "094f95c59583e74477d77cd4f1602c07dcfe787ef8a7518f02c5e581f15a4da6"},
	} {
		if got := vectorsDigest(c.vs); got != c.want {
			t.Errorf("%s digest over %d queries (bare-supernode node %d) = %s, want %s",
				c.name, len(qs), bare, got, c.want)
		}
	}
	for _, c := range []struct {
		name string
		ds   [][]int32
		want string
	}{
		{"GraphHOP", gh, "1347ae51f84256cea170e0f8e8802cfee7e9aaec4bf28adfa33ff1b1a8ffe07a"},
		{"SummaryHOP", sh, "eea976652becaedff35aba58047f03c1689e79bb74eea983a633b2cc9f5d45d0"},
		{"WeightedSummaryHOP", wh, "bbb0c8e235e12f2e7e1623ad64c15543949b5358dcadd270e1ce0ae6fab10d9f"},
	} {
		if got := distsDigest(c.ds); got != c.want {
			t.Errorf("%s digest over %d queries (bare-supernode node %d) = %s, want %s",
				c.name, len(qs), bare, got, c.want)
		}
	}

	// A summary at 10% of its graph's size, where most supernodes have
	// several members, so a supernode's sum over its members adds the same
	// value four or more times, and its density-weighted form. The query
	// set adds, for every supernode with a superedge and three or more
	// members, its member at the middle rank, so q's own value lands
	// between copies of its supernode's value in that sum.
	lg, ls := lowRatioFixture(t)
	lws := summary.FromPartitionDensity(lg, ls.SupernodeOf())
	lqs := []graph.NodeID{0, 1, 7, 100, 250, 299}
	mids := middleMembers(ls)
	big := 0
	for _, q := range mids {
		big = max(big, len(ls.Members(ls.Supernode(q))))
	}
	if big < 40 {
		t.Fatalf("the low-ratio summary's largest queried supernode has %d members, want at least 40", big)
	}
	lbare := noSuperedgeNode(lg, ls)
	if lbare < 0 {
		t.Fatal("the low-ratio summary has no non-isolated node whose supernode lacks superedges")
	}
	lqs = append(append(lqs, mids...), graph.NodeID(lbare))
	var lsr, lsp, lwr, lwp [][]float64
	var lsh, lwh [][]int32
	for _, q := range lqs {
		for _, f := range []struct {
			s    *summary.Summary
			r, p *[][]float64
			h    *[][]int32
		}{{ls, &lsr, &lsp, &lsh}, {lws, &lwr, &lwp, &lwh}} {
			v, err := SummaryRWR(f.s, q, RWRConfig{})
			if err != nil {
				t.Fatal(err)
			}
			*f.r = append(*f.r, v)
			if v, err = SummaryPHP(f.s, q, PHPConfig{}); err != nil {
				t.Fatal(err)
			}
			*f.p = append(*f.p, v)
			d, err := SummaryHOP(f.s, q)
			if err != nil {
				t.Fatal(err)
			}
			*f.h = append(*f.h, d)
		}
	}
	for _, c := range []struct {
		name string
		got  string
		want string
	}{
		{"LowRatioSummaryRWR", vectorsDigest(lsr), "1cf639a2738ae01f49bea958a0cc858a10fa3a85ea7ff9a6e01b5e645a84001e"},
		{"LowRatioSummaryPHP", vectorsDigest(lsp), "7e658367e39c8799acac9d19d1d036be6f2d2c512885273f3752c9ec0b96d324"},
		{"LowRatioSummaryHOP", distsDigest(lsh), "b8c7077173c12dc217baf97c11a098b5aef46230894f5f783de634d60d666581"},
		{"LowRatioWeightedSummaryRWR", vectorsDigest(lwr), "b2b66d9d982d96ab9b2cd2c523e72b3e6a6811d3a5db52b276193d60989b864c"},
		{"LowRatioWeightedSummaryPHP", vectorsDigest(lwp), "8ae4da49e1a206888f08a8ef66776c3340bf7ca604bae291a66a2fa93c2602ae"},
		{"LowRatioWeightedSummaryHOP", distsDigest(lwh), "1c9ed4c64a3cd2a81266e3dff48e048d3dd83b22e2dcf085400cf602cd25fa90"},
	} {
		if c.got != c.want {
			t.Errorf("%s digest over %d queries (%d middle-rank, bare-supernode node %d) = %s, want %s",
				c.name, len(lqs), len(mids), lbare, c.got, c.want)
		}
	}
}

// noSuperedgeNode returns the lowest node that has neighbors in g but
// whose supernode has no superedges in s, or -1 when there is none.
func noSuperedgeNode(g *graph.Graph, s *summary.Summary) int {
	for u := 0; u < g.NumNodes(); u++ {
		if g.Degree(graph.NodeID(u)) > 0 && s.SuperDegree(s.Supernode(graph.NodeID(u))) == 0 {
			return u
		}
	}
	return -1
}
