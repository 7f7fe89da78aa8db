package core

import (
	"math"
	"math/rand"

	"pegasus/internal/graph"
	"pegasus/internal/par"
	"pegasus/internal/summary"
	"pegasus/internal/weights"
)

// engine is the mutable summarization state. Supernodes live in slots;
// merging B into A reuses A's slot and kills B's. The per-slot aggregates
// Π_A (sum of π over members) and Q_A (sum of π²) are the paper's
// "additional information" (online-appendix Eqs. 13–15) enabling O(deg)
// pairwise-error evaluation (Lemma 1).
type engine struct {
	g   *graph.Graph
	cfg Config
	rng *rand.Rand

	// pi is π scaled by 1/sqrt(Z), so products π'_u·π'_v equal W_uv directly
	// and Z disappears from every formula.
	pi []float64

	superOf  []uint32          // node -> slot
	members  [][]graph.NodeID  // slot -> member nodes; nil when dead
	sumPi    []float64         // slot -> Π_A (scaled)
	sumPiSq  []float64         // slot -> Q_A (scaled)
	sedges   []map[uint32]bool // slot -> superedge neighbor set (may contain the slot itself: self-loop)
	numSuper int               // |S|
	numP     int               // |P|
	logV     float64           // log2|V|

	// scratch buffers reused across merge evaluations on the main goroutine
	pmA, pmB pairMass

	// candidate-generation scratch reused across iterations (shingle.go):
	// per-depth node-shingle vectors tagged with the seed that filled them,
	// and the packed (shingle key, slot payload) sort arrays with the radix
	// sorter's scratch.
	shingleBuf  [][]uint64
	shingleSeed []uint64
	keyBuf      []uint64
	slotBuf     []uint32
	sorter      par.KeySorter

	// scorer holds the batched-round state of mergeGroup: the sampled pairs
	// of the current round and the per-worker evaluation scratch.
	scorer roundScorer
}

// pairMass accumulates directed weighted edge mass from one supernode to
// every adjacent supernode: dm_AX = Σ_{u∈A} Σ_{v∈N_u ∩ X} π'_u·π'_v.
// For X ≠ A, dm_AX equals the unordered weighted edge mass m_AX; for X = A
// each intra edge is visited from both endpoints, so dm_AA = 2·m_AA, which
// is exactly the ordered intra edge mass.
type pairMass struct {
	keys []uint32
	m    map[uint32]float64
}

func (pm *pairMass) reset() {
	for _, k := range pm.keys {
		delete(pm.m, k)
	}
	pm.keys = pm.keys[:0]
}

func (pm *pairMass) add(x uint32, v float64) {
	if _, ok := pm.m[x]; !ok {
		pm.keys = append(pm.keys, x)
	}
	pm.m[x] += v
}

// newEngine initializes the singleton summary of Alg. 1 line 1: every node
// its own supernode, every edge its own superedge.
func newEngine(g *graph.Graph, w *weights.Weights, cfg Config) *engine {
	n := g.NumNodes()
	e := &engine{
		g:        g,
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		pi:       make([]float64, n),
		superOf:  make([]uint32, n),
		members:  make([][]graph.NodeID, n),
		sumPi:    make([]float64, n),
		sumPiSq:  make([]float64, n),
		sedges:   make([]map[uint32]bool, n),
		numSuper: n,
		numP:     int(g.NumEdges()),
		logV:     math.Log2(math.Max(float64(n), 2)),
	}
	invSqrtZ := 1 / math.Sqrt(w.Z)
	// Each index writes only its own slots, so the singleton initialization
	// is range-shardable; the result is identical for any worker count.
	par.Range(cfg.Workers, n, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			p := w.Pi[u] * invSqrtZ
			e.pi[u] = p
			e.superOf[u] = uint32(u)
			e.members[u] = []graph.NodeID{graph.NodeID(u)}
			e.sumPi[u] = p
			e.sumPiSq[u] = p * p
			e.sedges[u] = make(map[uint32]bool, g.Degree(graph.NodeID(u)))
			for _, v := range g.Neighbors(graph.NodeID(u)) {
				e.sedges[u][uint32(v)] = true
			}
		}
	})
	e.pmA.m = make(map[uint32]float64)
	e.pmB.m = make(map[uint32]float64)
	return e
}

// sizeBits returns Size(G) per Eq. (3) for the current state.
func (e *engine) sizeBits() float64 {
	k := float64(e.numSuper)
	if k <= 1 {
		k = 2
	}
	return (2*float64(e.numP) + float64(len(e.superOf))) * math.Log2(k)
}

func (e *engine) hasSuperedge(a, b uint32) bool { return e.sedges[a][b] }

func (e *engine) addSuperedge(a, b uint32) {
	e.sedges[a][b] = true
	e.sedges[b][a] = true
	e.numP++
}

// removeIncidentSuperedges drops every superedge incident to slot a (Alg. 2
// line 8) and returns how many were removed.
func (e *engine) removeIncidentSuperedges(a uint32) int {
	removed := len(e.sedges[a])
	for x := range e.sedges[a] { //lint:ordered each iteration deletes an independent mirror entry; order cannot affect the result
		if x != a {
			delete(e.sedges[x], a)
		}
	}
	e.numP -= removed
	e.sedges[a] = make(map[uint32]bool)
	return removed
}

// accumulateMass fills pm with the directed masses of slot a.
func (e *engine) accumulateMass(a uint32, pm *pairMass) {
	pm.reset()
	for _, u := range e.members[a] {
		pu := e.pi[u]
		for _, v := range e.g.Neighbors(u) {
			pm.add(e.superOf[v], pu*e.pi[v])
		}
	}
}

// aliveSlots lists all live supernode slots.
func (e *engine) aliveSlots() []uint32 {
	out := make([]uint32, 0, e.numSuper)
	for a := range e.members {
		if e.members[a] != nil {
			out = append(out, uint32(a))
		}
	}
	return out
}

// buildSummary freezes the engine state into an immutable Summary.
func (e *engine) buildSummary() *summary.Summary {
	b := summary.NewBuilder(e.superOf)
	for a := range e.sedges {
		if e.members[a] == nil {
			continue
		}
		for x := range e.sedges[a] { //lint:ordered Builder keys superedges by endpoint pair and canonicalizes order at Build
			if x >= uint32(a) {
				b.AddSuperedge(uint32(a), x, 1)
			}
		}
	}
	return b.Build()
}
