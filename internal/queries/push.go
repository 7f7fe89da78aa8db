package queries

import (
	"context"
	"fmt"

	"pegasus/internal/graph"
)

// PushConfig parameterizes the forward-push local RWR approximation.
type PushConfig struct {
	// Restart is the restarting probability (default 0.05, matching RWR).
	Restart float64
	// Eps is the per-unit-degree residual tolerance: on exit every node u
	// satisfies residual(u) <= Eps·wdeg(u), which bounds the pointwise error
	// of the estimate (default 1e-7).
	Eps float64
	// MaxPushes caps the number of push operations (default 50·|V|).
	MaxPushes int
	// Ctx, when non-nil, is checked periodically (every 1024 pushes); a
	// cancelled context aborts the query with the context's error.
	Ctx context.Context
}

func (c PushConfig) withDefaults(n int) PushConfig {
	if c.Restart == 0 {
		c.Restart = 0.05
	}
	if c.Eps == 0 {
		c.Eps = 1e-7
	}
	if c.MaxPushes == 0 {
		c.MaxPushes = 50 * n
	}
	return c
}

// PushRWR approximates the RWR vector w.r.t. q by forward push (local
// search), the technique the paper's appendix cites for random-walk-based
// k-NN queries [79]: probability mass starts as a unit residual at q and is
// repeatedly "pushed" — a fraction Restart settles at the holding node, the
// rest spreads to neighbors — until all residuals are below Eps·degree.
// Unlike power iteration it touches only the region of the graph where mass
// is non-negligible, making single queries on large graphs or summaries
// far cheaper. Works over any Oracle.
func PushRWR(o Oracle, q graph.NodeID, cfg PushConfig) ([]float64, error) {
	n := o.NumNodes()
	if int(q) >= n {
		return nil, fmt.Errorf("queries: query node %d out of range (|V|=%d)", q, n)
	}
	cfg = cfg.withDefaults(n)

	wdeg := make([]float64, n)
	for u := 0; u < n; u++ {
		o.ForEachNeighbor(graph.NodeID(u), func(_ graph.NodeID, w float64) {
			wdeg[u] += w
		})
	}

	p := make([]float64, n)
	r := make([]float64, n)
	inQueue := make([]bool, n)
	r[q] = 1
	queue := []graph.NodeID{q}
	inQueue[q] = true

	pushes := 0
	for len(queue) > 0 && pushes < cfg.MaxPushes {
		if pushes&1023 == 0 {
			if err := ctxErr(cfg.Ctx); err != nil {
				return nil, err
			}
		}
		u := queue[0]
		queue = queue[1:]
		inQueue[u] = false
		ru := r[u]
		if wdeg[u] == 0 {
			// Dead end: the walk restarts at q immediately; settle the
			// restart share here and return the rest to q.
			p[u] += cfg.Restart * ru
			r[u] = 0
			rem := (1 - cfg.Restart) * ru
			if rem > 0 && u != q {
				r[q] += rem
				if !inQueue[q] && r[q] > cfg.Eps {
					queue = append(queue, q)
					inQueue[q] = true
				}
			} else if u == q {
				p[q] += rem // self-restart mass settles eventually; approximate by settling now
			}
			pushes++
			continue
		}
		if ru <= cfg.Eps*wdeg[u] {
			continue
		}
		p[u] += cfg.Restart * ru
		r[u] = 0
		share := (1 - cfg.Restart) * ru / wdeg[u]
		o.ForEachNeighbor(u, func(v graph.NodeID, w float64) {
			r[v] += share * w
			if !inQueue[v] && r[v] > cfg.Eps*wdeg[v] {
				queue = append(queue, v)
				inQueue[v] = true
			}
		})
		pushes++
	}
	// Settle leftover residuals in place: each residual's eventual settled
	// mass is proportional to it, and adding restart·r keeps the estimate a
	// lower bound improvement without another sweep.
	for u := 0; u < n; u++ {
		p[u] += cfg.Restart * r[u]
	}
	return p, nil
}
