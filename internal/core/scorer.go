package core

import (
	"math"

	"pegasus/internal/par"
)

// Parallel candidate-pair scoring. mergeGroup batches each round: it first
// draws the round's samples from the engine RNG (sequentially, preserving the
// exact stream of the legacy loop), dedupes re-drawn pairs, and then scores
// the unique pairs — concurrently when the round is large enough. Scoring is
// read-only on the engine; the merge commit stays on the main goroutine. The
// argmax is selected by (score, first-drawn index), which reproduces the
// legacy "strictly greater wins" scan for every worker count, so summaries
// are bit-identical at Workers=1 and Workers=N (see DESIGN.md).

// minParallelPairs gates the parallel scoring path: below this many unique
// candidate pairs the goroutine spawn/join overhead exceeds the O(deg)
// evaluation work.
const minParallelPairs = 16

// pairSample is one sampled ordered candidate pair (merge b into a).
type pairSample struct{ a, b uint32 }

func (p pairSample) key() uint64 { return uint64(p.a)<<32 | uint64(p.b) }

// evalScratch is one worker's private scoring state: mass scratch for the
// pair under evaluation, the retained masses of the worker-local best pair
// (so the winning evaluation never has to be repeated by performMerge), and
// a Cost_A memo by slot. Cost_A reads only state that a merge changes
// (|S|, Π/Q, the masses through superOf, and the superedges), so a memo
// entry is exact while its epoch equals the engine's; each worker owning its
// memo keeps parallel scoring free of shared writes.
type evalScratch struct {
	curA, curB   pairMass // masses of the pair being evaluated
	bestA, bestB pairMass // masses of the worker-local best pair
	costs        []slotCost
	bestScore    float64
	bestIdx      int // index into the round's unique pairs; -1 = none accepted
	best         pairSample
}

// slotCost is one memoized Cost_A with the engine epoch it was computed at
// (0 = never computed; engine epochs start at 1).
type slotCost struct {
	cost  float64
	epoch uint64
}

func newEvalScratch(slots int) *evalScratch {
	return &evalScratch{
		curA:  newPairMass(slots),
		curB:  newPairMass(slots),
		bestA: newPairMass(slots),
		bestB: newPairMass(slots),
		costs: make([]slotCost, slots),
	}
}

func (s *evalScratch) reset() {
	s.bestScore = math.Inf(-1)
	s.bestIdx = -1
}

// roundScorer owns the reusable buffers of the batched merge rounds.
type roundScorer struct {
	samples []pairSample
	unique  []pairSample
	seen    map[uint64]bool
	scratch []*evalScratch
}

// dedupe keeps the first occurrence of every ordered pair. Duplicate samples
// would re-score identical masses to identical values and can never displace
// the earlier occurrence under the legacy strict-greater argmax, so dropping
// them changes neither the selected pair nor the RNG stream (which was
// consumed during sampling).
func (sc *roundScorer) dedupe(samples []pairSample) []pairSample {
	if sc.seen == nil {
		sc.seen = make(map[uint64]bool, 2*len(samples))
	}
	unique := sc.unique[:0]
	for _, p := range samples {
		if k := p.key(); !sc.seen[k] {
			sc.seen[k] = true
			unique = append(unique, p)
		}
	}
	sc.unique = unique
	for _, p := range unique {
		delete(sc.seen, p.key())
	}
	return unique
}

func (sc *roundScorer) scratchFor(k, slots int) *evalScratch {
	for len(sc.scratch) <= k {
		sc.scratch = append(sc.scratch, newEvalScratch(slots))
	}
	return sc.scratch[k]
}

// observe folds the evaluation of pair p (at first-drawn index idx) into the
// worker-local best. Ties on score keep the lowest index, matching the
// first-wins semantics of the legacy sequential scan regardless of the order
// in which a worker happens to process its share of the round.
func (e *engine) observe(s *evalScratch, idx int, p pairSample) {
	rel, abs := e.evaluateMergeInto(p.a, p.b, s)
	score := rel
	if e.cfg.CostMode == AbsoluteCost {
		score = abs
	}
	if score > s.bestScore || (score == s.bestScore && s.bestIdx >= 0 && idx < s.bestIdx) {
		s.bestScore, s.bestIdx, s.best = score, idx, p
		// Swap, don't copy: the winner's masses stay live in bestA/bestB and
		// the displaced buffers become the next evaluation's scratch.
		s.curA, s.bestA = s.bestA, s.curA
		s.curB, s.bestB = s.bestB, s.curB
	}
}

// scoreRound evaluates the round's unique pairs and returns the scratch
// holding the argmax pair and its masses, or nil when no pair was accepted
// (all scores -Inf/NaN — the legacy "found == false" case). The result is
// identical for every worker count: with workers=1 (or a round below the
// parallel gate) par.ForEach runs the evaluations inline in sample order,
// reproducing the legacy sequential scan exactly.
func (e *engine) scoreRound(pairs []pairSample) *evalScratch {
	n := len(pairs)
	if n == 0 {
		return nil
	}
	workers := e.cfg.Workers
	if workers > n {
		workers = n
	}
	if n < minParallelPairs {
		workers = 1
	}
	for k := 0; k < workers; k++ {
		e.scorer.scratchFor(k, len(e.superOf)).reset()
	}
	par.ForEach(workers, n, func(w, i int) {
		e.observe(e.scorer.scratch[w], i, pairs[i])
	})

	var win *evalScratch
	for k := 0; k < workers; k++ {
		s := e.scorer.scratch[k]
		if s.bestIdx < 0 {
			continue
		}
		if win == nil || s.bestScore > win.bestScore ||
			(s.bestScore == win.bestScore && s.bestIdx < win.bestIdx) {
			win = s
		}
	}
	return win
}
