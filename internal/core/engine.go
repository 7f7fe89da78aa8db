package core

import (
	"math"
	"math/rand"
	"slices"

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

	superOf  []uint32         // node -> slot
	members  [][]graph.NodeID // slot -> member nodes; nil when dead
	sumPi    []float64        // slot -> Π_A (scaled)
	sumPiSq  []float64        // slot -> Q_A (scaled)
	sedges   [][]uint32       // slot -> sorted superedge neighbors (may contain the slot itself once: self-loop)
	numSuper int              // |S|
	numP     int              // |P|
	logV     float64          // log2|V|

	// logS2 is 2·log2(max(|S|,2)), the two endpoint ids a superedge costs
	// (Eq. 3), and logS2Merged the same at |S|−1, the charge a merged
	// supernode's superedges are evaluated at. Both change only with |S|,
	// so newEngine and performMergeWith set them.
	logS2, logS2Merged float64

	// epoch counts merges, the only state change while pairs are scored:
	// a memoized Cost_A is exact while its epoch is current (scorer.go).
	// sparsify drops superedges only after the last scoring round.
	epoch uint64

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
	// of the current round, the current group's mass memo and the dense
	// slot index the O(deg) walks share.
	scorer roundScorer

	// afterRound, when set, runs after every merge round (a test hook for
	// checking the scoring memo between rounds; nil in every build).
	afterRound func()
}

// slotMass is the directed weighted edge mass from one supernode to every
// adjacent supernode: dm_AX = Σ_{u∈A} Σ_{v∈N_u ∩ X} π'_u·π'_v. For X ≠ A,
// dm_AX equals the unordered weighted edge mass m_AX; for X = A each intra
// edge is visited from both endpoints, so dm_AA = 2·m_AA, which is exactly
// the ordered intra edge mass.
//
// keys holds the adjacent slots in first-visit order and vals their masses,
// so every sum over them runs in visit order.
type slotMass struct {
	keys []uint32
	vals []float64
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
		sedges:   make([][]uint32, n),
		numSuper: n,
		numP:     int(g.NumEdges()),
		logV:     math.Log2(math.Max(float64(n), 2)),
		epoch:    1,
	}
	e.setLogS()
	e.scorer.memo.index = make([]int32, n)
	e.scorer.pos = make([]int32, n)
	// The singleton superedge lists are the (sorted) adjacency lists, copied
	// into one backing array. Each list is capped at its own length, so an
	// insert reallocates that list alone and a delete shifts only within it.
	offsets := make([]int, n+1)
	for u := 0; u < n; u++ {
		offsets[u+1] = offsets[u] + g.Degree(graph.NodeID(u))
	}
	flat := make([]uint32, offsets[n])
	invSqrtZ := 1 / math.Sqrt(w.Z)
	for u := 0; u < n; u++ {
		p := w.Pi[u] * invSqrtZ
		e.pi[u] = p
		e.superOf[u] = uint32(u)
		e.members[u] = []graph.NodeID{graph.NodeID(u)}
		e.sumPi[u] = p
		e.sumPiSq[u] = p * p
		se := flat[offsets[u]:offsets[u+1]:offsets[u+1]]
		copy(se, g.Neighbors(graph.NodeID(u)))
		e.sedges[u] = se
	}
	return e
}

// setLogS refreshes the |S|-dependent superedge charges.
func (e *engine) setLogS() {
	e.logS2 = 2 * math.Log2(math.Max(float64(e.numSuper), 2))
	e.logS2Merged = 2 * math.Log2(math.Max(float64(e.numSuper-1), 2))
}

// sizeBits returns Size(G) per Eq. (3) for the current state.
func (e *engine) sizeBits() float64 {
	k := float64(e.numSuper)
	if k <= 1 {
		k = 2
	}
	return (2*float64(e.numP) + float64(len(e.superOf))) * math.Log2(k)
}

func (e *engine) hasSuperedge(a, b uint32) bool {
	_, ok := slices.BinarySearch(e.sedges[a], b)
	return ok
}

// insertSorted adds x to the sorted set s.
func insertSorted(s []uint32, x uint32) []uint32 {
	i, found := slices.BinarySearch(s, x)
	if found {
		return s
	}
	return slices.Insert(s, i, x)
}

// deleteSorted removes x from the sorted set s.
func deleteSorted(s []uint32, x uint32) []uint32 {
	if i, found := slices.BinarySearch(s, x); found {
		return slices.Delete(s, i, i+1)
	}
	return s
}

// removeIncidentSuperedges drops every superedge incident to slot a (Alg. 2
// line 8).
func (e *engine) removeIncidentSuperedges(a uint32) {
	for _, x := range e.sedges[a] {
		if x != a {
			e.sedges[x] = deleteSorted(e.sedges[x], a)
		}
	}
	e.numP -= len(e.sedges[a])
	e.sedges[a] = e.sedges[a][:0]
}

// accumulateMass appends the directed masses of slot a to m's arena,
// counts the work in m, and returns them. pos indexes the keys while they
// are collected and is all zero again on return.
//
//pegasus:hotpath runs once per slot per change of its masses (scorer.go)
func (e *engine) accumulateMass(a uint32, m *massMemo, pos []int32) slotMass {
	keys, vals := m.arena.keys, m.arena.vals
	off := len(keys)
	visits := 0
	for _, u := range e.members[a] {
		pu := e.pi[u]
		nbrs := e.g.Neighbors(u)
		visits += len(nbrs)
		for _, v := range nbrs {
			x := e.superOf[v]
			if i := pos[x]; i > 0 {
				vals[off+int(i)-1] += pu * e.pi[v]
			} else {
				keys = append(keys, x)
				vals = append(vals, pu*e.pi[v])
				pos[x] = int32(len(keys) - off)
			}
		}
	}
	for _, x := range keys[off:] {
		pos[x] = 0
	}
	m.arena.keys, m.arena.vals = keys, vals
	m.accumulations++
	m.visits += visits
	n := len(keys)
	return slotMass{keys: keys[off:n:n], vals: vals[off:n:n]}
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

// buildSummary freezes the engine state into an immutable Summary. Live
// slots are numbered in order of first occurrence over the nodes, the
// supernode IDs summary.New takes.
func (e *engine) buildSummary() *summary.Summary {
	id := make([]uint32, len(e.members)) // slot -> supernode ID + 1; 0 = not seen yet
	slots := make([]uint32, 0, e.numSuper)
	superOf := make([]uint32, len(e.superOf))
	for u, x := range e.superOf {
		if id[x] == 0 {
			slots = append(slots, x)
			id[x] = uint32(len(slots))
		}
		superOf[u] = id[x] - 1
	}
	// File each superedge {d,a}, d ≤ a, under d while a ascends, so every
	// upper list comes out sorted.
	upper := make([][]uint32, len(slots))
	for a, x := range slots {
		for _, y := range e.sedges[x] {
			if d := id[y] - 1; d <= uint32(a) {
				upper[d] = append(upper[d], uint32(a))
			}
		}
	}
	return summary.New(superOf, upper, nil)
}
