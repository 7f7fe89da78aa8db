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

// pairCost returns Cost_AB (Eq. 6) in bits for a pair with ordered totals
// (t, e), given whether the superedge is present. log2|S| bits are charged
// per superedge endpoint; logS2 is 2·log2(|S| used for evaluation).
func (eng *engine) pairCost(t, e float64, present bool, logS2 float64) float64 {
	if present {
		miss := t - e
		if miss < 0 {
			miss = 0 // guard float cancellation
		}
		bits := logS2 + eng.logV*miss
		if eng.cfg.Encoding == BestOfTwo {
			if alt := logS2 + entropyBits(t, e); alt < bits {
				bits = alt
			}
		}
		return bits
	}
	return eng.logV * e
}

// bestPairCost returns min over presence choices — used when (re)deciding
// superedges for a merged supernode (Alg. 2 line 9) — along with the choice.
func (eng *engine) bestPairCost(t, e float64, logS2 float64) (float64, bool) {
	with := eng.pairCost(t, e, true, logS2)
	without := eng.pairCost(t, e, false, logS2)
	if with < without {
		return with, true
	}
	return without, false
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
// superedge set, given a's masses in pm. Superedges to supernodes with zero
// mass are also charged, in ascending slot order (the sorted superedge
// list) so cost sums are bit-for-bit deterministic.
//
//pegasus:hotpath runs for both endpoints of every candidate pair whose Cost_A is not memoized
func (eng *engine) supernodeCost(a uint32, pm *pairMass) float64 {
	logS2 := 2 * math.Log2(math.Max(float64(eng.numSuper), 2))
	piA, qA := eng.sumPi[a], eng.sumPiSq[a]
	sa := eng.sedges[a]
	total := 0.0
	for i, x := range pm.keys {
		var t, e float64
		if x == a {
			t, e = selfTotals(piA, qA, pm.vals[i])
		} else {
			t, e = crossTotals(piA, eng.sumPi[x], pm.vals[i])
		}
		_, present := slices.BinarySearch(sa, x)
		total += eng.pairCost(t, e, present, logS2)
	}
	// Superedges with zero mass: possible only when weight products
	// underflow.
	for _, x := range sa {
		if pm.pos[x] != 0 {
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

// evaluateMerge computes the cost reduction of merging slots a and b on the
// first worker's scratch; see evaluateMergeInto.
func (eng *engine) evaluateMerge(a, b uint32) (rel, abs float64) {
	return eng.evaluateMergeInto(a, b, eng.scorer.scratchFor(0, len(eng.superOf)))
}

// evaluateMergeInto computes the cost reduction of merging slots a and b:
// Eq. (10) (absolute) and Eq. (11) (relative). It only reads the engine
// state and writes s, so distinct scratches may evaluate distinct candidate
// pairs concurrently (the parallel scoring path). s.curA/s.curB are left
// holding the masses of a and b for reuse by performMergeWith.
func (eng *engine) evaluateMergeInto(a, b uint32, s *evalScratch) (rel, abs float64) {
	pmA, pmB := &s.curA, &s.curB
	eng.accumulateMass(a, pmA)
	eng.accumulateMass(b, pmB)

	costA := eng.memoCost(s, a, pmA)
	costB := eng.memoCost(s, b, pmB)

	logS2 := 2 * math.Log2(math.Max(float64(eng.numSuper), 2))
	tAB, eAB := crossTotals(eng.sumPi[a], eng.sumPi[b], pmA.get(b))
	costAB := eng.pairCost(tAB, eAB, eng.hasSuperedge(a, b), logS2)

	before := costA + costB - costAB
	costC := eng.mergedCost(a, b, pmA, pmB)
	abs = before - costC
	if before <= 1e-12 {
		// Two cost-free supernodes (e.g. isolated): merging is neutral.
		return 0, abs
	}
	return abs / before, abs
}

// memoCost returns Cost_A of slot a from s's memo, computing it from a's
// masses in pm when the memoized value predates the current epoch.
func (eng *engine) memoCost(s *evalScratch, a uint32, pm *pairMass) float64 {
	m := &s.costs[a]
	if m.epoch != eng.epoch {
		m.cost, m.epoch = eng.supernodeCost(a, pm), eng.epoch
	}
	return m.cost
}

// mergedCost computes Cost_{A∪B}(merge(A,B;G)) (the last term of Eq. 10):
// the cost of the hypothetical merged supernode with superedges re-chosen
// optimally (Alg. 2 line 9), evaluated in the post-merge summary where
// |S| is one smaller. Requires pmA/pmB to hold the masses of a and b.
//
//pegasus:hotpath runs once per candidate-pair evaluation
func (eng *engine) mergedCost(a, b uint32, pmA, pmB *pairMass) float64 {
	logS2 := 2 * math.Log2(math.Max(float64(eng.numSuper-1), 2))
	piC := eng.sumPi[a] + eng.sumPi[b]
	qC := eng.sumPiSq[a] + eng.sumPiSq[b]

	total := 0.0
	// Cross pairs to every adjacent supernode X ∉ {a,b}.
	for i, x := range pmA.keys {
		if x == a || x == b {
			continue
		}
		t, e := crossTotals(piC, eng.sumPi[x], pmA.vals[i]+pmB.get(x))
		c, _ := eng.bestPairCost(t, e, logS2)
		total += c
	}
	for i, x := range pmB.keys {
		if x == a || x == b || pmA.pos[x] != 0 {
			continue // a, b, or already handled above
		}
		t, e := crossTotals(piC, eng.sumPi[x], pmB.vals[i])
		c, _ := eng.bestPairCost(t, e, logS2)
		total += c
	}
	// Self pair of the merged supernode: ordered intra mass
	// dm_AA + dm_BB + 2·m_AB.
	dmCC := pmA.get(a) + pmB.get(b) + 2*pmA.get(b)
	t, e := selfTotals(piC, qC, dmCC)
	c, _ := eng.bestPairCost(t, e, logS2)
	return total + c
}

// performMerge accumulates the masses of a and b on the first worker's
// scratch and merges b into a; see performMergeWith.
func (eng *engine) performMerge(a, b uint32) {
	s := eng.scorer.scratchFor(0, len(eng.superOf))
	eng.accumulateMass(a, &s.curA)
	eng.accumulateMass(b, &s.curB)
	eng.performMergeWith(a, b, &s.curA, &s.curB)
}

// performMergeWith merges slot b into slot a (Alg. 2 lines 6–9): removes
// stale superedges, unions members and aggregates, and re-adds superedges
// incident to the merged supernode exactly when presence lowers the pair
// cost. pmA/pmB must hold the masses of a and b (as left by the argmax
// evaluation's scratch, so the winning evaluation is not repeated here).
func (eng *engine) performMergeWith(a, b uint32, pmA, pmB *pairMass) {
	eng.epoch++
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

	logS2 := 2 * math.Log2(math.Max(float64(eng.numSuper), 2))
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
		if _, present := eng.bestPairCost(t, e, logS2); !present {
			return
		}
		eng.sedges[a] = append(eng.sedges[a], x)
		if x != a {
			eng.sedges[x] = insertSorted(eng.sedges[x], a)
		}
		eng.numP++
	}

	dmCC := pmA.get(a) + pmB.get(b) + 2*pmA.get(b)
	for i, x := range pmA.keys {
		if x == a || x == b {
			continue
		}
		decide(x, pmA.vals[i]+pmB.get(x))
	}
	for i, x := range pmB.keys {
		if x == a || x == b || pmA.pos[x] != 0 {
			continue
		}
		decide(x, pmB.vals[i])
	}
	if dmCC > 0 {
		decide(a, dmCC)
	}
	slices.Sort(eng.sedges[a])
}
