package core

import "math"

// Candidate-pair scoring over a per-group mass memo. mergeGroup batches
// each round: it first draws the round's samples from the engine RNG
// (preserving the exact stream of the legacy loop), dedupes re-drawn pairs,
// brings the memo entries of the round's slots up to date, and then scores
// the unique pairs in draw order, keeping the first pair with the strictly
// greatest score — the legacy sequential scan (see DESIGN.md).

// pairSample is one sampled ordered candidate pair (merge b into a).
type pairSample struct{ a, b uint32 }

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
	// pos is the dense slot index of the O(deg) walks (accumulateMass,
	// supernodeCost, mergedCost, performMergeWith); all zero between uses.
	pos []int32

	rounds, pairs int // merge rounds scored and the unique pairs they evaluated
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

// fill brings the memo entry of every slot the round's pairs name up to
// date: each entry whose Cost_A predates the current epoch is recomputed
// once, after accumulating its masses again when a merge made them stale.
func (e *engine) fill(pairs []pairSample) {
	m, pos := &e.scorer.memo, e.scorer.pos
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

// scoreRound fills the memo for the round's unique pairs and evaluates them
// in draw order. It returns the first pair with the strictly greatest score,
// and ok false when no pair was accepted (all scores -Inf or NaN — the
// legacy "found == false" case).
func (e *engine) scoreRound(pairs []pairSample) (best pairSample, bestScore float64, ok bool) {
	e.scorer.rounds++
	e.scorer.pairs += len(pairs)
	e.fill(pairs)
	m := &e.scorer.memo
	bestScore = math.Inf(-1)
	for _, p := range pairs {
		rel, abs := e.evaluateMergeInto(m.entry(p.a), m.entry(p.b), e.scorer.pos)
		score := rel
		if e.cfg.CostMode == AbsoluteCost {
			score = abs
		}
		if score > bestScore {
			best, bestScore, ok = p, score, true
		}
	}
	return best, bestScore, ok
}
