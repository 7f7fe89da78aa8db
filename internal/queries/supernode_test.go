package queries

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pegasus/internal/core"
	"pegasus/internal/graph"
	"pegasus/internal/summary"
)

// assertSameBits fails unless got and want hold the same float64 bits.
func assertSameBits(t *testing.T, label string, q graph.NodeID, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s q=%d: length %d, want %d", label, q, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s q=%d: index %d = %v, want %v", label, q, i, got[i], want[i])
		}
	}
}

// kernelFixtures returns the summaries the kernel equivalence tests run
// on: PeGaSus summaries of the golden graph at budget ratios 0.1, 0.3 and
// 0.5 (it has isolated nodes and a component cut off from the giant one),
// the density-weighted form of each one's partition, and the low-ratio
// golden summary and its weighted form.
func kernelFixtures(t *testing.T) map[string]*summary.Summary {
	t.Helper()
	g := goldenGraph()
	out := map[string]*summary.Summary{}
	for _, ratio := range []float64{0.1, 0.3, 0.5} {
		res, err := core.Summarize(g, core.Config{Targets: goldenTargets, BudgetRatio: ratio, Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		name := "golden@" + string(rune('0'+int(ratio*10)))
		out[name] = res.Summary
		out[name+"/weighted"] = summary.FromPartitionDensity(g, res.Summary.SupernodeOf())
	}
	lg, ls := lowRatioFixture(t)
	out["lowratio"] = ls
	out["lowratio/weighted"] = summary.FromPartitionDensity(lg, ls.SupernodeOf())
	return out
}

// TestSupernodeKernelsMatchNodeOracles: on every query node of the golden
// graph's fixtures, and on every fifth node and every middle-rank member of
// the low-ratio ones, the supernode-granular RWR, PHP and HOP expand to the
// node-level kernels' answers bit for bit, after the same number of
// iterations. The fixtures cover an isolated q, q on a supernode without
// superedges, dead-end supernodes, and q at every rank of its supernode.
func TestSupernodeKernelsMatchNodeOracles(t *testing.T) {
	fixtures := kernelFixtures(t)
	names := make([]string, 0, len(fixtures))
	for name := range fixtures {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		s := fixtures[name]
		ss := NewSummarySession(s)
		if len(ss.dead) == 0 && name != "lowratio/weighted" {
			t.Fatalf("%s: no dead-end node", name)
		}
		var qs []graph.NodeID
		for u := 0; u < s.NumNodes(); u++ {
			if !strings.HasPrefix(name, "lowratio") || u%5 == 0 {
				qs = append(qs, graph.NodeID(u))
			}
		}
		if strings.HasPrefix(name, "lowratio") {
			qs = append(qs, middleMembers(fixtures["lowratio"])...)
		}
		exact := 0
		for _, q := range qs {
			wantR, deltas := nodeRWR(ss, q, RWRConfig{})
			gotR, st, err := ss.rwr(q, RWRConfig{})
			if err != nil {
				t.Fatal(err)
			}
			assertSameBits(t, name+" RWR", q, gotR.Scores(), wantR)
			if st.iterations != len(deltas) {
				t.Fatalf("%s RWR q=%d: %d iterations, the node-level kernel took %d", name, q, st.iterations, len(deltas))
			}
			exact += st.exactSums

			wantP, iters := nodePHP(ss, q, PHPConfig{})
			gotP, st, err := ss.php(q, PHPConfig{})
			if err != nil {
				t.Fatal(err)
			}
			assertSameBits(t, name+" PHP", q, gotP.Scores(), wantP)
			if st.iterations != iters {
				t.Fatalf("%s PHP q=%d: %d iterations, the node-level kernel took %d", name, q, st.iterations, iters)
			}

			gotH, err := ss.HOPAnswer(q)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := gotH.Dists(), memberHOP(s, q); !slices.Equal(got, want) {
				t.Fatalf("%s HOP q=%d = %v, want %v", name, q, got, want)
			}
		}
		t.Logf("%s: %d queries, |V| %d, |S| %d, %d dead-end nodes, %d exact L1 sums", name, len(qs), s.NumNodes(), s.NumSupernodes(), len(ss.dead), exact)
	}
}

// TestRWRStopTestInRoundingWindow: an Eps equal to an L1 change the
// node-level kernel observed (and the next float above it) puts the
// estimate inside the rounding window, where the kernel must take the
// exact node-order sum and stop after exactly as many iterations as the
// node-level kernel, with the same answer.
func TestRWRStopTestInRoundingWindow(t *testing.T) {
	fixtures := kernelFixtures(t)
	for _, name := range []string{"golden@3", "golden@1/weighted", "lowratio/weighted"} {
		s := fixtures[name]
		ss := NewSummarySession(s)
		for _, q := range []graph.NodeID{0, 5, 120} {
			_, deltas := nodeRWR(ss, q, RWRConfig{})
			for _, i := range []int{1, len(deltas) / 3, len(deltas) / 2} {
				for _, eps := range []float64{deltas[i], math.Nextafter(deltas[i], math.Inf(1))} {
					cfg := RWRConfig{Eps: eps}
					want, wantDeltas := nodeRWR(ss, q, cfg)
					got, st, err := ss.rwr(q, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if st.exactSums == 0 {
						t.Fatalf("%s q=%d Eps=%v: no stop test took the exact sum", name, q, eps)
					}
					if st.iterations != len(wantDeltas) {
						t.Fatalf("%s q=%d Eps=%v: %d iterations, the node-level kernel took %d",
							name, q, eps, st.iterations, len(wantDeltas))
					}
					assertSameBits(t, name+" RWR", q, got.Scores(), want)
				}
			}
		}
	}
}

// TestPHPSkipsNaNChanges: with a NaN self-loop weight on q's supernode,
// its other members' PHP values are NaN from the first iteration on, and
// the NaN spreads along the superedges. The node-level L∞ test skips a
// NaN change, and so must the supernode kernel, on q's supernode as on
// every other one: it stops after as many iterations as the oracle, with
// the same answer.
func TestPHPSkipsNaNChanges(t *testing.T) {
	fixtures := kernelFixtures(t)
	for _, name := range []string{"golden@3", "lowratio/weighted"} {
		s := fixtures[name]
		qs := middleMembers(s)
		if len(qs) == 0 {
			t.Fatalf("%s: no supernode of three members with a superedge", name)
		}
		for _, q := range qs[:min(3, len(qs))] {
			ss := NewSummarySession(s)
			ss.selfW[s.Supernode(q)] = math.NaN()
			want, iters := nodePHP(ss, q, PHPConfig{})
			if iters == (PHPConfig{}).withDefaults().MaxIter {
				t.Fatalf("%s q=%d: the node-level kernel ran to MaxIter", name, q)
			}
			got, st, err := ss.php(q, PHPConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if st.iterations != iters {
				t.Fatalf("%s q=%d: %d iterations, the node-level kernel took %d", name, q, st.iterations, iters)
			}
			nan := 0
			for u, v := range got.Scores() {
				if math.IsNaN(v) != math.IsNaN(want[u]) || !math.IsNaN(v) && math.Float64bits(v) != math.Float64bits(want[u]) {
					t.Fatalf("%s q=%d: node %d = %v, want %v", name, q, u, v, want[u])
				}
				if math.IsNaN(v) {
					nan++
				}
			}
			if nan == 0 {
				t.Fatalf("%s q=%d: no NaN value", name, q)
			}
		}
	}
}

// TestAnswerMethods: At, TopK and Bytes of compact answers agree with
// their expansions (a HOP answer's distances as float64), and HOP answers
// take one byte per supernode unless a finite distance reaches 255.
func TestAnswerMethods(t *testing.T) {
	fixtures := kernelFixtures(t)
	s := fixtures["lowratio/weighted"]
	ss := NewSummarySession(s)
	ns := int64(s.NumSupernodes())
	for _, q := range []graph.NodeID{0, 17, 299} {
		r, err := ss.RWRAnswer(q, RWRConfig{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := ss.PHPAnswer(q, PHPConfig{})
		if err != nil {
			t.Fatal(err)
		}
		h, err := ss.HOPAnswer(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range []*Answer{r, p, h} {
			v := a.Scores()
			if a == h {
				v = ToFloats(h.Dists())
			}
			if a.Len() != len(v) {
				t.Fatalf("Len %d, expansion of %d", a.Len(), len(v))
			}
			for u := range v {
				if math.Float64bits(a.At(graph.NodeID(u))) != math.Float64bits(v[u]) {
					t.Fatalf("q=%d: At(%d) = %v, expansion %v", q, u, a.At(graph.NodeID(u)), v[u])
				}
			}
			for _, k := range []int{0, 1, 10, 57, 1000} {
				if got, want := a.TopK(k), TopK(v, k); !slices.Equal(got, want) {
					t.Fatalf("q=%d: TopK(%d) = %v, want %v", q, k, got, want)
				}
			}
		}
		if got := r.Bytes(); got != 8*(ns+1) {
			t.Fatalf("RWR answer holds %d B, want %d", got, 8*(ns+1))
		}
		if got := h.Bytes(); got != ns+1 {
			t.Fatalf("HOP answer holds %d B, want %d", got, ns+1)
		}
		if r.Dists() != nil || h.Scores() != nil {
			t.Fatal("an RWR answer has distances or a HOP answer has scores")
		}
		if d := h.Dists(); d[q] != 0 {
			t.Fatalf("q=%d: HOP distance to itself %d", q, d[q])
		}
	}

	// A path of 300 nodes has distances up to 299: four bytes each.
	b := graph.NewBuilder(300)
	for u := 0; u+1 < 300; u++ {
		b.AddEdge(graph.NodeID(u), graph.NodeID(u+1))
	}
	path := summary.Identity(b.Build())
	h, err := NewSummarySession(path).HOPAnswer(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Bytes(); got != 4*301 {
		t.Fatalf("path HOP answer holds %d B, want %d", got, 4*301)
	}
	if d := h.Dists(); d[299] != 299 || d[0] != 0 {
		t.Fatalf("path distances end at %d, start at %d", d[299], d[0])
	}
	if h, err = NewSummarySession(path).HOPAnswer(100); err != nil || h.Bytes() != 301 {
		t.Fatalf("HOP from the middle of the path: %d B, %v; want one byte per supernode", h.Bytes(), err)
	}
}

// TestAnswerTopKRanksTiesAndNaN: a compact answer ranks like TopK on its
// expansion when supernodes tie, q ties its own supernode, and values are
// NaN.
func TestAnswerTopKRanksTiesAndNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n, ns := 1+rng.Intn(40), 1+rng.Intn(8)
		of := make([]uint32, n)
		for u := range of {
			of[u] = uint32(rng.Intn(ns))
		}
		vals := make([]float64, ns+1)
		for i := range vals {
			switch rng.Intn(4) {
			case 0:
				vals[i] = math.NaN()
			case 1:
				vals[i] = float64(rng.Intn(3))
			default:
				vals[i] = rng.Float64()
			}
		}
		a := &Answer{of: of, q: graph.NodeID(rng.Intn(n)), scores: vals}
		for _, k := range []int{0, 1, 3, n, n + 5} {
			if got, want := a.TopK(k), TopK(a.Scores(), k); !slices.Equal(got, want) {
				t.Fatalf("trial %d: TopK(%d) = %v, want %v", trial, k, got, want)
			}
		}
	}
}
