package core

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"pegasus/internal/gen"
	"pegasus/internal/graph"
	"pegasus/internal/weights"
)

// evaluateMerge scores merging b into a outside any merge round, from
// masses and Cost_A computed afresh.
func (e *engine) evaluateMerge(a, b uint32) (rel, abs float64) {
	en := e.freshEntries(a, b)
	return e.evaluateMergeInto(&en[0], &en[1], e.scorer.pos)
}

// performMerge merges b into a outside any merge round, from masses
// accumulated afresh into the emptied memo's arena.
func (e *engine) performMerge(a, b uint32) {
	m, pos := &e.scorer.memo, e.scorer.pos
	e.scorer.begin(nil)
	ma := e.accumulateMass(a, m, pos)
	mb := e.accumulateMass(b, m, pos)
	e.performMergeWith(a, b, ma, mb)
}

// freshEntries computes the masses and Cost_A of each slot afresh, outside
// any merge round. It empties the memo and accumulates into its arena, so
// the entries are valid until the next call, merge or merge round.
func (e *engine) freshEntries(slots ...uint32) []massEntry {
	m, pos := &e.scorer.memo, e.scorer.pos
	e.scorer.begin(nil)
	out := make([]massEntry, len(slots))
	for i, x := range slots {
		en := massEntry{slotMass: e.accumulateMass(x, m, pos), slot: x, fresh: true, epoch: e.epoch}
		en.cost = e.supernodeCost(x, en.slotMass, pos)
		out[i] = en
	}
	return out
}

// TestCostMemoMatchesFromScratch pins the candidate group's memo bit for
// bit: after every merge round, each entry the next round may reuse must
// equal a fresh computation for its slot. That covers the masses of every
// fresh entry (keys in first-visit order, values bit for bit) and the
// Cost_A of every entry tagged with the current epoch. A workers=N case
// builds N engines at once over the one graph, as N concurrent shard builds
// do, engine k seeded with the config's seed + k, and checks every engine's
// memo; under -race it also shows that the engines share the graph
// read-only.
func TestCostMemoMatchesFromScratch(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"ba":  gen.BarabasiAlbert(300, 4, 3),
		"sbm": gen.PlantedPartition(gen.SBMConfig{Nodes: 240, Communities: 4, AvgDegree: 12, MixingP: 0.08}, 5),
	}
	cfgs := map[string]Config{
		"uniform":      {BudgetRatio: 0.4, Seed: 3},
		"personalized": {Targets: []graph.NodeID{0, 1, 2}, Alpha: 1.5, BudgetRatio: 0.35, Seed: 5},
		"abscost":      {BudgetRatio: 0.4, Seed: 7, CostMode: AbsoluteCost},
		"bestoftwo":    {BudgetRatio: 0.3, Seed: 11, Encoding: BestOfTwo, Alpha: 1},
	}
	for _, gname := range slices.Sorted(maps.Keys(graphs)) {
		for _, cname := range slices.Sorted(maps.Keys(cfgs)) {
			for _, workers := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", gname, cname, workers), func(t *testing.T) {
					checkMemoConcurrently(t, graphs[gname], cfgs[cname], workers)
				})
			}
		}
	}
	// Random groups of 500 slots give the largest groups and rounds.
	g := gen.BarabasiAlbert(600, 4, 5)
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("ba600/randomgroups/workers=%d", workers), func(t *testing.T) {
			checkMemoConcurrently(t, g, Config{BudgetRatio: 0.4, Seed: 13, RandomGroups: true}, workers)
		})
	}
}

// checkMemoConcurrently builds n engines over g at once, engine k seeded
// with cfg.Seed+k, and checks each engine's memo after every merge round.
func checkMemoConcurrently(t *testing.T, g *graph.Graph, cfg Config, n int) {
	t.Helper()
	engines := make([]*engine, n)
	for k := range engines {
		c := cfg
		c.Seed += int64(k)
		engines[k] = newTestEngine(t, g, c)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k, e := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k] = checkMemoEveryRound(e)
		}()
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Errorf("engine %d (seed %d): %v", k, cfg.Seed+int64(k), err)
		}
	}
}

// checkMemoEveryRound runs the first iterations of Alg. 1 on e and checks
// the memo after each merge round, returning the first mismatch.
func checkMemoEveryRound(e *engine) error {
	pos := make([]int32, len(e.superOf))
	rounds, masses, costs := 0, 0, 0
	var err error
	e.afterRound = func() {
		rounds++
		if err != nil {
			return
		}
		for _, en := range e.scorer.memo.entries {
			if !en.fresh && en.epoch != e.epoch {
				continue
			}
			var scratch massMemo
			want := e.accumulateMass(en.slot, &scratch, pos)
			if en.fresh {
				if !slices.Equal(en.keys, want.keys) || !slices.EqualFunc(en.vals, want.vals, sameBits) {
					err = fmt.Errorf("round %d, slot %d: memoized masses %v %v, from scratch %v %v",
						rounds, en.slot, en.keys, en.vals, want.keys, want.vals)
					return
				}
				masses++
			}
			if en.epoch == e.epoch {
				if want := e.supernodeCost(en.slot, want, pos); !sameBits(en.cost, want) {
					err = fmt.Errorf("round %d, slot %d: memoized Cost_A %v, from scratch %v",
						rounds, en.slot, en.cost, want)
					return
				}
				costs++
			}
		}
	}
	theta := initialTheta
	for it := 1; it <= 4 && e.sizeBits() > e.cfg.BudgetBits && err == nil; it++ {
		var rejected []float64
		for _, grp := range e.candidateGroups(context.Background(), it) {
			e.mergeGroup(grp, theta, &rejected)
		}
		theta = e.cfg.nextTheta(it, rejected, theta)
	}
	if err == nil && (masses == 0 || costs == 0) {
		err = fmt.Errorf("%d rounds left no memo entry to check (%d masses, %d costs)", rounds, masses, costs)
	}
	return err
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// TestMergeReductionMatchesBruteForce is the Eq. (10) oracle. On small
// random graphs it applies random merges and, around each one, recomputes
// Cost_A, Cost_B and Cost_AB (before) and Cost_{A∪B} (after, at |S|−1)
// from the graph's edge list and the node→supernode map, with Eq. (6)
// written out here rather than called. The engine's predicted reduction
// must equal before − after, and every superedge incident to the merged
// supernode must be present exactly when presence is cheaper (Alg. 2
// line 9). It runs under both encodings: PeGaSus's error correction at a
// random α, and the SSumM preset's best of two at α = 1.
func TestMergeReductionMatchesBruteForce(t *testing.T) {
	t.Run("error-correction", func(t *testing.T) { checkMergeReductions(t, ErrorCorrection) })
	t.Run("best-of-two", func(t *testing.T) { checkMergeReductions(t, BestOfTwo) })
}

// checkMergeReductions runs the random-merge oracle loop of
// TestMergeReductionMatchesBruteForce under one encoding.
func checkMergeReductions(t *testing.T, enc Encoding) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(53) // at most 60 nodes
		var g *graph.Graph
		switch rng.Intn(3) {
		case 0:
			g = gen.BarabasiAlbert(n, 1+rng.Intn(4), seed)
		case 1:
			g = gen.ErdosRenyi(n, n+rng.Intn(3*n), seed)
		default:
			g = gen.PlantedPartition(gen.SBMConfig{
				Nodes: n, Communities: 1 + rng.Intn(4),
				AvgDegree: 2 + 6*rng.Float64(), MixingP: rng.Float64() / 2,
			}, seed)
		}
		var targets []graph.NodeID
		if rng.Intn(2) == 0 {
			targets = graph.SampleNodes(g, 1+rng.Intn(4), seed)
		}
		alpha := 1 + rng.Float64()
		if enc == BestOfTwo {
			alpha = 1 // SSumM's uniform weights, under which t and e count pairs and edges
		}
		e := newTestEngine(t, g, Config{Targets: targets, Alpha: alpha, Seed: seed, Encoding: enc})
		w, err := weights.New(g, e.cfg.Targets, e.cfg.Alpha)
		if err != nil {
			t.Fatal(err)
		}
		o := newCostOracle(g, w)
		o.bestOfTwo = enc == BestOfTwo
		for step := 0; ; step++ {
			slots := e.aliveSlots()
			if len(slots) < 2 {
				break
			}
			a := slots[rng.Intn(len(slots))]
			b := slots[rng.Intn(len(slots))]
			if a == b {
				continue
			}
			o.load(e)
			if x := slots[rng.Intn(len(slots))]; rng.Intn(4) == 0 && o.mass[int(a)*n+int(x)] == 0 && !e.hasSuperedge(a, x) {
				// A superedge with no edge mass behind it (reachable only
				// when weight products underflow) is charged too.
				e.sedges[a] = insertSorted(e.sedges[a], x)
				if x != a {
					e.sedges[x] = insertSorted(e.sedges[x], a)
				}
				e.numP++
				e.epoch++
			}
			_, abs := e.evaluateMerge(a, b)
			before := o.slotCost(e, a) + o.slotCost(e, b) - o.pairCost(a, b, e.hasSuperedge(a, b))
			e.performMerge(a, b)
			o.load(e)
			after := o.slotCost(e, a)
			if d := abs - (before - after); math.Abs(d) > 1e-9*math.Max(1, math.Abs(before)) {
				t.Fatalf("seed %d step %d merge %d<-%d: engine reduction %v, brute force %v (diff %g)",
					seed, step, a, b, abs, before-after, d)
			}
			for _, x := range e.aliveSlots() {
				with := o.pairCost(a, x, true)
				without := o.pairCost(a, x, false)
				if math.Abs(with-without) <= 1e-9*math.Max(1, math.Abs(without)) {
					continue // a tie up to rounding: either choice is optimal
				}
				if got, want := e.hasSuperedge(a, x), with < without; got != want {
					t.Fatalf("seed %d step %d: superedge %d-%d present=%v, but with=%v without=%v bits",
						seed, step, a, x, got, with, without)
				}
			}
		}
	}
}

// costOracle recomputes supernode aggregates and pair masses from scratch.
type costOracle struct {
	g     *graph.Graph
	edges []graph.Edge
	pi    []float64 // π scaled by 1/sqrt(Z): π'_u·π'_v = W_uv
	sumPi []float64 // slot -> Π
	sumSq []float64 // slot -> Q
	mass  []float64 // |V|×|V| by slot pair: unordered weighted edge mass m_XY
	numS  int
	// bestOfTwo also charges a present superedge at most the binomial
	// entropy of its block (the SSumM encoding).
	bestOfTwo bool
}

func newCostOracle(g *graph.Graph, w *weights.Weights) *costOracle {
	n := g.NumNodes()
	o := &costOracle{g: g, edges: g.EdgeList(), pi: make([]float64, n),
		sumPi: make([]float64, n), sumSq: make([]float64, n), mass: make([]float64, n*n)}
	for u := range o.pi {
		o.pi[u] = w.Pi[u] / math.Sqrt(w.Z)
	}
	return o
}

// load recomputes every aggregate from the edge list and e.superOf.
func (o *costOracle) load(e *engine) {
	n := o.g.NumNodes()
	clear(o.sumPi)
	clear(o.sumSq)
	clear(o.mass)
	seen := make(map[uint32]bool)
	for u, a := range e.superOf {
		o.sumPi[a] += o.pi[u]
		o.sumSq[a] += o.pi[u] * o.pi[u]
		seen[a] = true
	}
	o.numS = len(seen)
	for _, ed := range o.edges {
		a, b := e.superOf[ed.U], e.superOf[ed.V]
		m := o.pi[ed.U] * o.pi[ed.V]
		o.mass[int(a)*n+int(b)] += m
		if a != b {
			o.mass[int(b)*n+int(a)] += m
		}
	}
}

// pairCost is Cost_XY of Eq. (6), in the ordered convention of Eq. (1):
// t ordered pairs, e ordered edge mass; a present superedge costs its two
// endpoint ids plus log2|V| bits per missing ordered pair, an absent one
// log2|V| bits per ordered edge. Under bestOfTwo a present superedge costs
// its endpoint ids plus the cheaper of the error correction and the
// block's binomial entropy n·H2(k/n), with n = t/2 unordered pairs of which
// k = e/2 are edges.
func (o *costOracle) pairCost(x, y uint32, present bool) float64 {
	var t, em float64
	if x == y {
		t = o.sumPi[x]*o.sumPi[x] - o.sumSq[x]
		em = 2 * o.mass[int(x)*o.g.NumNodes()+int(x)]
	} else {
		t = 2 * o.sumPi[x] * o.sumPi[y]
		em = 2 * o.mass[int(x)*o.g.NumNodes()+int(y)]
	}
	logV := math.Log2(math.Max(float64(o.g.NumNodes()), 2))
	if present {
		logS := math.Log2(math.Max(float64(o.numS), 2)) // Eq. (3) charges log2 2 below two supernodes
		bits := logV * math.Max(t-em, 0)
		if o.bestOfTwo {
			bits = math.Min(bits, blockEntropy(t/2, em/2))
		}
		return 2*logS + bits
	}
	return logV * em
}

// blockEntropy is n·H2(k/n), the bits that encode which k of n pairs are
// edges, written as k·log2(n/k) + (n−k)·log2(n/(n−k)); an empty or full
// block costs nothing.
func blockEntropy(n, k float64) float64 {
	if k <= 0 || k >= n {
		return 0
	}
	return k*math.Log2(n/k) + (n-k)*math.Log2(n/(n-k))
}

// slotCost is Cost_X of Eq. (9): Cost_XY summed over every supernode Y,
// with presence read from the engine's superedges.
func (o *costOracle) slotCost(e *engine, x uint32) float64 {
	total := 0.0
	for _, y := range e.aliveSlots() {
		total += o.pairCost(x, y, e.hasSuperedge(x, y))
	}
	return total
}
