package core

import (
	"math"
	"slices"
)

// Cost machinery (§III-B). All reconstruction-error quantities are kept in
// the ordered convention of Eq. (1): each erroneous unordered pair counts
// its weight twice, so that Eq. (8) decomposes Cost(G) exactly and
// log2|V|·RE is exactly the error-correction bit count of Footnote 4.

// pairTotals returns the total ordered weighted pair count t and ordered
// weighted edge mass e for the (possibly hypothetical) supernode pair whose
// aggregates are given. For a cross pair (A,B): t = 2·Π_A·Π_B, e = 2·m_AB.
// For a self pair (A,A): t = Π_A²−Q_A, e = dm_AA (already ordered).
func crossTotals(piA, piB, dmAB float64) (t, e float64) {
	return 2 * piA * piB, 2 * dmAB
}

func selfTotals(piA, qA, dmAA float64) (t, e float64) {
	return piA*piA - qA, dmAA
}

// pairCosts returns Cost_AB (Eq. 6) in bits under ErrorCorrection for a
// pair with ordered totals (t, e): with the superedge present, logS2 bits
// for its two endpoint ids (2·log2|S| at the |S| used for evaluation) plus
// logV = log2|V| bits per missing ordered pair; without it, logV bits per
// ordered edge. It is the one place that formula lives. The walks call it
// per key; it is small enough to inline, and a call there would spill the
// walk's live floats, since Go's register ABI has no callee-saved
// registers.
//
//pegasus:hotpath inlined into the per-key loops of every pair-cost walk
func pairCosts(t, e, logV, logS2 float64) (with, without float64) {
	miss := t - e
	if miss < 0 {
		miss = 0 // guard float cancellation
	}
	return logS2 + logV*miss, logV * e
}

// cheaper returns the smaller of a pair's two costs and whether it is the
// one with the superedge; on a tie the superedge stays out (Alg. 2 line 9
// adds it only when presence lowers the cost).
func cheaper(with, without float64) (float64, bool) {
	if with < without {
		return with, true
	}
	return without, false
}

// pairCost returns Cost_AB (Eq. 6) under the configured encoding, given
// whether the superedge is present. BestOfTwo also charges a present
// superedge at most its binomial-entropy encoding. The per-key loops call
// it only under BestOfTwo and inline pairCosts otherwise.
func (eng *engine) pairCost(t, e float64, present bool, logS2 float64) float64 {
	with, without := pairCosts(t, e, eng.logV, logS2)
	if !present {
		return without
	}
	if eng.cfg.Encoding == BestOfTwo {
		if alt := logS2 + entropyBits(t, e); alt < with {
			with = alt
		}
	}
	return with
}

// bestPairCost returns min over presence choices — used when (re)deciding
// superedges for a merged supernode (Alg. 2 line 9) — along with the choice.
func (eng *engine) bestPairCost(t, e float64, logS2 float64) (float64, bool) {
	_, without := pairCosts(t, e, eng.logV, logS2)
	return cheaper(eng.pairCost(t, e, true, logS2), without)
}

// entropyBits is the binomial-entropy encoding of a pair block: with n = t/2
// unordered pairs of which k = e/2 are edges, encoding the exact block
// content costs n·H2(k/n) bits. Only meaningful under uniform weights
// (SSumM); under personalized weights t and e are weighted masses and the
// formula degrades gracefully to an approximation.
func entropyBits(t, e float64) float64 {
	n := t / 2
	k := e / 2
	if n <= 0 || k <= 0 || k >= n {
		return 0
	}
	p := k / n
	h := -p*math.Log2(p) - (1-p)*math.Log2(1-p)
	return n * h
}

// supernodeCost computes Cost_A (Eq. 9) for slot a under the current
// superedge set, given a's masses in m. Superedges to supernodes with zero
// mass are also charged, in ascending slot order (the sorted superedge
// list) so cost sums are bit-for-bit deterministic. pos marks a's
// superedges while it runs (1 = present, 2 = present and met among the
// keys); it is all zero on entry and on return.
//
//pegasus:hotpath runs for every slot of a merge round whose Cost_A is not memoized
func (eng *engine) supernodeCost(a uint32, m slotMass, pos []int32) float64 {
	logS2, logV := eng.logS2, eng.logV
	bestOfTwo := eng.cfg.Encoding == BestOfTwo
	piA, qA := eng.sumPi[a], eng.sumPiSq[a]
	sa := eng.sedges[a]
	for _, x := range sa {
		pos[x] = 1
	}
	total := 0.0
	for i, x := range m.keys {
		var t, e float64
		if x == a {
			t, e = selfTotals(piA, qA, m.vals[i])
		} else {
			t, e = crossTotals(piA, eng.sumPi[x], m.vals[i])
		}
		present := pos[x] != 0
		if present {
			pos[x] = 2
		}
		with, without := pairCosts(t, e, logV, logS2)
		c := without
		if bestOfTwo {
			c = eng.pairCost(t, e, present, logS2)
		} else if present {
			c = with
		}
		total += c
	}
	// Superedges with zero mass: possible only when weight products
	// underflow.
	for _, x := range sa {
		met := pos[x] == 2
		pos[x] = 0
		if met {
			continue
		}
		var t, e float64
		if x == a {
			t, e = selfTotals(piA, qA, 0)
		} else {
			t, e = crossTotals(piA, eng.sumPi[x], 0)
		}
		total += eng.pairCost(t, e, true, logS2)
	}
	return total
}

// evaluateMergeInto computes the cost reduction of merging slot b into slot a,
// whose masses and Cost_A the memo entries ea and eb hold: Eq. (10)
// (absolute) and Eq. (11) (relative). It only reads the engine state and
// the entries and writes pos (all zero on entry and on return).
func (eng *engine) evaluateMergeInto(ea, eb *massEntry, pos []int32) (rel, abs float64) {
	a, b := ea.slot, eb.slot
	costC, dmAB := eng.mergedCost(a, b, ea.slotMass, eb.slotMass, pos)
	tAB, eAB := crossTotals(eng.sumPi[a], eng.sumPi[b], dmAB)
	present := eng.hasSuperedge(a, b)
	with, without := pairCosts(tAB, eAB, eng.logV, eng.logS2)
	costAB := without
	if eng.cfg.Encoding == BestOfTwo {
		costAB = eng.pairCost(tAB, eAB, present, eng.logS2)
	} else if present {
		costAB = with
	}

	before := ea.cost + eb.cost - costAB
	abs = before - costC
	if before <= 1e-12 {
		// Two cost-free supernodes (e.g. isolated): merging is neutral.
		return 0, abs
	}
	return abs / before, abs
}

// mergedCost computes Cost_{A∪B}(merge(A,B;G)) (the last term of Eq. 10):
// the cost of the hypothetical merged supernode with superedges re-chosen
// optimally (Alg. 2 line 9), evaluated in the post-merge summary where
// |S| is one smaller. ma and mb are the masses of a and b; it also returns
// dm_AB, read from ma. pos indexes mb's keys while it runs: a key the two
// lists share is negated when ma's loop meets it, so mb's loop skips it.
//
//pegasus:hotpath runs once per candidate-pair evaluation
func (eng *engine) mergedCost(a, b uint32, ma, mb slotMass, pos []int32) (cost, dmAB float64) {
	logS2, logV := eng.logS2Merged, eng.logV
	bestOfTwo := eng.cfg.Encoding == BestOfTwo
	piC := eng.sumPi[a] + eng.sumPi[b]
	qC := eng.sumPiSq[a] + eng.sumPiSq[b]
	for i, x := range mb.keys {
		pos[x] = int32(i + 1)
	}

	var dmAA, dmBB float64
	total := 0.0
	// Cross pairs to every adjacent supernode X ∉ {a,b}.
	for i, x := range ma.keys {
		switch x {
		case a:
			dmAA = ma.vals[i]
			continue
		case b:
			dmAB = ma.vals[i]
			continue
		}
		dmB := 0.0
		if j := pos[x]; j > 0 {
			dmB = mb.vals[j-1]
			pos[x] = -j
		}
		t, e := crossTotals(piC, eng.sumPi[x], ma.vals[i]+dmB)
		c, _ := cheaper(pairCosts(t, e, logV, logS2))
		if bestOfTwo {
			c, _ = eng.bestPairCost(t, e, logS2)
		}
		total += c
	}
	for i, x := range mb.keys {
		shared := pos[x] < 0
		pos[x] = 0
		if x == b {
			dmBB = mb.vals[i]
		}
		if x == a || x == b || shared {
			continue // a, b, or already handled above
		}
		t, e := crossTotals(piC, eng.sumPi[x], mb.vals[i])
		c, _ := cheaper(pairCosts(t, e, logV, logS2))
		if bestOfTwo {
			c, _ = eng.bestPairCost(t, e, logS2)
		}
		total += c
	}
	// Self pair of the merged supernode: ordered intra mass
	// dm_AA + dm_BB + 2·m_AB.
	dmCC := dmAA + dmBB + 2*dmAB
	t, e := selfTotals(piC, qC, dmCC)
	c, _ := cheaper(pairCosts(t, e, logV, logS2))
	if bestOfTwo {
		c, _ = eng.bestPairCost(t, e, logS2)
	}
	return total + c, dmAB
}

// performMergeWith merges slot b into slot a (Alg. 2 lines 6–9): removes
// stale superedges, unions members and aggregates, and re-adds superedges
// incident to the merged supernode exactly when presence lowers the pair
// cost. ma and mb are the pre-merge masses of a and b (the memo entries the
// winning evaluation read, so no mass is accumulated here). The merge
// changes the masses of a and of every slot adjacent to b (b's keys), and
// of no other slot, so exactly those memo entries are marked stale.
func (eng *engine) performMergeWith(a, b uint32, ma, mb slotMass) {
	eng.epoch++
	memo := &eng.scorer.memo
	memo.invalidate(a)
	memo.invalidate(b)
	for _, x := range mb.keys {
		memo.invalidate(x)
	}
	eng.removeIncidentSuperedges(a)
	eng.removeIncidentSuperedges(b)
	eng.sedges[b] = nil

	// Union b into a.
	for _, u := range eng.members[b] {
		eng.superOf[u] = a
	}
	eng.members[a] = append(eng.members[a], eng.members[b]...)
	eng.members[b] = nil
	eng.sumPi[a] += eng.sumPi[b]
	eng.sumPiSq[a] += eng.sumPiSq[b]
	eng.sumPi[b], eng.sumPiSq[b] = 0, 0
	eng.numSuper--
	eng.setLogS()

	logS2, logV := eng.logS2, eng.logV
	bestOfTwo := eng.cfg.Encoding == BestOfTwo
	piC, qC := eng.sumPi[a], eng.sumPiSq[a]

	// a's list is rebuilt unsorted and sorted once at the end; each kept
	// neighbor gets a in its own sorted list.
	decide := func(x uint32, dm float64) {
		var t, e float64
		if x == a {
			t, e = selfTotals(piC, qC, dm)
		} else {
			t, e = crossTotals(piC, eng.sumPi[x], dm)
		}
		_, present := cheaper(pairCosts(t, e, logV, logS2))
		if bestOfTwo {
			_, present = eng.bestPairCost(t, e, logS2)
		}
		if !present {
			return
		}
		eng.sedges[a] = append(eng.sedges[a], x)
		if x != a {
			eng.sedges[x] = insertSorted(eng.sedges[x], a)
		}
		eng.numP++
	}

	// The same walk as mergedCost: pos indexes mb's keys, and shared keys
	// are negated in ma's loop.
	pos := eng.scorer.pos
	for i, x := range mb.keys {
		pos[x] = int32(i + 1)
	}
	var dmAA, dmBB, dmAB float64
	for i, x := range ma.keys {
		switch x {
		case a:
			dmAA = ma.vals[i]
			continue
		case b:
			dmAB = ma.vals[i]
			continue
		}
		dmB := 0.0
		if j := pos[x]; j > 0 {
			dmB = mb.vals[j-1]
			pos[x] = -j
		}
		decide(x, ma.vals[i]+dmB)
	}
	for i, x := range mb.keys {
		shared := pos[x] < 0
		pos[x] = 0
		if x == b {
			dmBB = mb.vals[i]
		}
		if x == a || x == b || shared {
			continue
		}
		decide(x, mb.vals[i])
	}
	if dmCC := dmAA + dmBB + 2*dmAB; dmCC > 0 {
		decide(a, dmCC)
	}
	slices.Sort(eng.sedges[a])
}
