package queries

import "pegasus/internal/graph"

// TopK returns the k highest-scoring nodes of a score vector in descending
// order (ties broken by node ID) — the k-NN answer shape of [79]. A NaN
// score ranks below every number. It keeps the k best in a bounded heap,
// O(|V| log k), and sorts them in place.
func TopK(scores []float64, k int) []graph.NodeID {
	h := newTopHeap(k, len(scores))
	for u, s := range scores {
		h.offer(scored{s, graph.NodeID(u)})
	}
	return h.sorted()
}

// scored is one node with its score.
type scored struct {
	score float64
	node  graph.NodeID
}

// ranksAbove reports whether a ranks above b in TopK's order: the higher
// score first, a NaN below every number, then the lower ID.
func ranksAbove(a, b scored) bool {
	switch {
	case a.score > b.score:
		return true
	case a.score < b.score:
		return false
	}
	if aNaN, bNaN := a.score != a.score, b.score != b.score; aNaN != bNaN {
		return bNaN
	}
	return a.node < b.node
}

// topHeap keeps the best k of the nodes offered to it, with the
// lowest-ranked at h[0]: no node ranks above either of its children. The
// order is total, so the k best do not depend on the order of the offers.
type topHeap struct {
	h []scored
	k int
}

// newTopHeap returns a heap for the best min(k, n) of n nodes.
func newTopHeap(k, n int) *topHeap {
	k = max(min(k, n), 0)
	return &topHeap{h: make([]scored, 0, k), k: k}
}

// offer adds e if it is among the best k offered so far.
func (t *topHeap) offer(e scored) {
	if len(t.h) < t.k {
		t.h = append(t.h, e)
		if len(t.h) == t.k {
			for i := t.k/2 - 1; i >= 0; i-- {
				siftDown(t.h, i)
			}
		}
		return
	}
	if t.k > 0 && ranksAbove(e, t.h[0]) {
		t.h[0] = e
		siftDown(t.h, 0)
	}
}

// sorted returns the kept nodes in descending rank order (nil when none):
// heapsort moves the lowest-ranked to the back, one at a time.
func (t *topHeap) sorted() []graph.NodeID {
	if t.k == 0 {
		return nil
	}
	h := t.h
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		siftDown(h[:end], 0)
	}
	out := make([]graph.NodeID, len(h))
	for i, e := range h {
		out[i] = e.node
	}
	return out
}

// siftDown moves h[i] down the heap until no node ranks above its children.
func siftDown(h []scored, i int) {
	for {
		low := i
		if c := 2*i + 1; c < len(h) && ranksAbove(h[low], h[c]) {
			low = c
		}
		if c := 2*i + 2; c < len(h) && ranksAbove(h[low], h[c]) {
			low = c
		}
		if low == i {
			return
		}
		h[i], h[low] = h[low], h[i]
		i = low
	}
}
