package core

import (
	"math"

	"pegasus/internal/par"
)

// Parallel candidate-pair scoring over a per-group mass memo. mergeGroup
// batches each round: it first draws the round's samples from the engine
// RNG (sequentially, preserving the exact stream of the legacy loop),
// dedupes re-drawn pairs, brings the memo entries of the round's slots up to
// date on the calling goroutine, and then scores the unique pairs —
// concurrently when the round is large enough. Scoring is read-only on the
// engine and the memo; the merge commit stays on the main goroutine. The
// argmax is selected by (score, first-drawn index), which reproduces the
// legacy "strictly greater wins" scan for every worker count, so summaries
// are bit-identical at Workers=1 and Workers=N (see DESIGN.md).

// minParallelPairs gates the parallel scoring: below this many unique
// candidate pairs the round is scored inline. With the memo an evaluation
// costs a few microseconds, and on a 2-vCPU host no smaller gate kept
// Workers=2 from running slower than Workers=1 (DESIGN.md, "The parallel
// build pipeline").
const minParallelPairs = 256

// pairSample is one sampled ordered candidate pair (merge b into a).
type pairSample struct{ a, b uint32 }

// evalScratch is one worker's private scoring state: a dense slot index
// for the O(deg) walks and the worker-local best pair of the round.
type evalScratch struct {
	pos []int32 // slot -> index scratch; all zero between uses

	bestScore float64
	bestIdx   int // index into the round's unique pairs; -1 = none accepted
	best      pairSample
}

func newEvalScratch(slots int) *evalScratch {
	return &evalScratch{pos: make([]int32, slots)}
}

func (s *evalScratch) reset() {
	s.bestScore = math.Inf(-1)
	s.bestIdx = -1
}

// massEntry memoizes one slot of the current candidate group: its masses,
// exact while fresh, and its Cost_A, exact while epoch is the engine's.
// Cost_A reads |S|, so every merge outdates it; the masses change only when
// a merge involves the slot or a supernode adjacent to it (performMergeWith
// clears fresh for exactly those slots).
type massEntry struct {
	slotMass
	slot  uint32
	fresh bool
	cost  float64
	epoch uint64 // 0 = never computed; engine epochs start at 1
}

// massMemo holds the entries of the current candidate group. Storage is
// bounded by the group: entries has one element per slot the group began
// with, and their masses live in the arena, which is emptied when the next
// group begins.
type massMemo struct {
	entries []massEntry
	index   []int32  // slot -> index into entries, meaningful when that entry's slot matches
	arena   slotMass // masses accumulated since the group began; entries view into it

	accumulations, visits int // accumulateMass calls and the neighbour visits they made
}

// entry returns the entry of slot x, which must be in the group.
func (m *massMemo) entry(x uint32) *massEntry { return &m.entries[m.index[x]] }

// lookup returns the entry of slot x, nil when x is not in the group.
func (m *massMemo) lookup(x uint32) *massEntry {
	if i := int(m.index[x]); i < len(m.entries) && m.entries[i].slot == x {
		return &m.entries[i]
	}
	return nil
}

// invalidate marks slot x's masses stale.
func (m *massMemo) invalidate(x uint32) {
	if en := m.lookup(x); en != nil {
		en.fresh = false
	}
}

// roundScorer owns the reusable buffers of the batched merge rounds.
type roundScorer struct {
	samples []pairSample
	unique  []pairSample
	// head and next chain the round's unique pairs by their a: head maps a's
	// memo entry index to 1 + the index in unique of its latest pair, next
	// maps a pair to 1 + the index of the previous pair with the same a
	// (0 ends either). head is all zero between rounds.
	head, next []int32
	memo       massMemo
	scratch    []*evalScratch
}

// begin resets the memo for a new candidate group: one stale entry per
// slot, and no masses.
func (sc *roundScorer) begin(group []uint32) {
	m := &sc.memo
	clear(m.entries) // drop the views into older mass arrays
	m.entries = m.entries[:0]
	for _, a := range group {
		m.index[a] = int32(len(m.entries))
		m.entries = append(m.entries, massEntry{slot: a})
	}
	m.arena.keys, m.arena.vals = m.arena.keys[:0], m.arena.vals[:0]
	if len(sc.head) < len(group) {
		sc.head = make([]int32, len(group))
	}
}

// dedupe keeps the first occurrence of every ordered pair, in draw order.
// Duplicate samples would re-score identical masses to identical values and
// can never displace the earlier occurrence under the legacy strict-greater
// argmax, so dropping them changes neither the selected pair nor the RNG
// stream (which was consumed during sampling). A sample is compared only
// with the earlier unique pairs that share its a.
func (sc *roundScorer) dedupe(samples []pairSample) []pairSample {
	unique, next := sc.unique[:0], sc.next[:0]
	for _, p := range samples {
		h := &sc.head[sc.memo.index[p.a]]
		dup := false
		for j := *h; j > 0; j = next[j-1] {
			if unique[j-1].b == p.b {
				dup = true
				break
			}
		}
		if !dup {
			unique = append(unique, p)
			next = append(next, *h)
			*h = int32(len(unique))
		}
	}
	for _, p := range unique {
		sc.head[sc.memo.index[p.a]] = 0
	}
	sc.unique, sc.next = unique, next
	return unique
}

func (sc *roundScorer) scratchFor(k, slots int) *evalScratch {
	for len(sc.scratch) <= k {
		sc.scratch = append(sc.scratch, newEvalScratch(slots))
	}
	return sc.scratch[k]
}

// fill brings the memo entry of every slot the round's pairs name up to
// date: each entry whose Cost_A predates the current epoch is recomputed
// once, after accumulating its masses again when a merge made them stale.
func (e *engine) fill(pairs []pairSample) {
	m := &e.scorer.memo
	pos := e.scorer.scratchFor(0, len(e.superOf)).pos
	for _, p := range pairs {
		for _, x := range [2]uint32{p.a, p.b} {
			en := m.entry(x)
			if en.epoch == e.epoch {
				continue
			}
			if !en.fresh {
				en.slotMass, en.fresh = e.accumulateMass(x, m, pos), true
			}
			en.cost, en.epoch = e.supernodeCost(x, en.slotMass, pos), e.epoch
		}
	}
}

// observe folds the evaluation of pair p (at first-drawn index idx) into the
// worker-local best. Ties on score keep the lowest index, matching the
// first-wins semantics of the legacy sequential scan regardless of the order
// in which a worker happens to process its share of the round.
func (e *engine) observe(s *evalScratch, idx int, p pairSample) {
	m := &e.scorer.memo
	rel, abs := e.evaluateMergeInto(m.entry(p.a), m.entry(p.b), s.pos)
	score := rel
	if e.cfg.CostMode == AbsoluteCost {
		score = abs
	}
	if score > s.bestScore || (score == s.bestScore && s.bestIdx >= 0 && idx < s.bestIdx) {
		s.bestScore, s.bestIdx, s.best = score, idx, p
	}
}

// scoreRound fills the memo for the round's unique pairs, evaluates them and
// returns the scratch holding the argmax pair, or nil when no pair was
// accepted (all scores -Inf/NaN — the legacy "found == false" case). The
// result is identical for every worker count: with workers=1 (or a round
// below the parallel gate) par.ForEach runs the evaluations inline in
// sample order, reproducing the legacy sequential scan exactly.
func (e *engine) scoreRound(pairs []pairSample) *evalScratch {
	n := len(pairs)
	if n == 0 {
		return nil
	}
	e.fill(pairs)
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
