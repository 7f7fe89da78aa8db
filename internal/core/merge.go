package core

import "math"

// mergeGroup runs the merging-and-addition step (Alg. 2) on one candidate
// group: each round samples |Ci| supernode pairs, scores the distinct ones
// (in parallel when the round is large, see scorer.go), takes the pair
// maximizing the cost reduction, merges it if the reduction clears the
// threshold θ, and otherwise records the rejected reduction in L. The group
// is abandoned after log2|Ci| consecutive failures. Returns the number of
// merges performed; rejected reductions are appended to *rejected.
//
// Two legacy defects are fixed here while preserving the exact RNG stream
// and argmax selection of the original sequential loop: re-drawn (a,b)
// pairs are deduped instead of burning evaluations on identical re-scores,
// and a slot's masses are accumulated once per change rather than once per
// evaluation: the group's memo (scorer.go) serves every evaluation and the
// winning merge.
func (e *engine) mergeGroup(group []uint32, theta float64, rejected *[]float64) int {
	e.scorer.begin(group)
	fails := 0
	merges := 0
	// group is mutated in place: merged-away slots are swapped out.
	for len(group) > 1 && float64(fails) <= math.Log2(float64(len(group))) {
		nPairs := len(group)
		// Draw the full round upfront. The draws never depended on the
		// interleaved evaluations, so batching consumes the same RNG values
		// in the same order as the legacy loop.
		samples := e.scorer.samples[:0]
		for i := 0; i < nPairs; i++ {
			ai := e.rng.Intn(len(group))
			bi := e.rng.Intn(len(group) - 1)
			if bi >= ai {
				bi++
			}
			samples = append(samples, pairSample{a: group[ai], b: group[bi]})
		}
		e.scorer.samples = samples
		win := e.scoreRound(e.scorer.dedupe(samples))
		if win == nil {
			break
		}
		// The threshold compares against the same statistic that ranked the
		// pair; under AbsoluteCost the scale differs but the adaptive policy
		// tracks it automatically via L.
		if win.bestScore >= theta {
			m := &e.scorer.memo
			a, b := win.best.a, win.best.b
			e.performMergeWith(a, b, m.entry(a).slotMass, m.entry(b).slotMass)
			removeSlot(&group, b)
			merges++
			fails = 0
		} else {
			*rejected = append(*rejected, win.bestScore)
			fails++
		}
		if e.afterRound != nil {
			e.afterRound()
		}
	}
	return merges
}

// removeSlot deletes the slot s from group (swap-remove).
func removeSlot(group *[]uint32, s uint32) {
	g := *group
	for i, x := range g {
		if x == s {
			g[i] = g[len(g)-1]
			*group = g[:len(g)-1]
			return
		}
	}
}
