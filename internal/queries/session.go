package queries

import (
	"fmt"

	"pegasus/internal/graph"
	"pegasus/internal/obs"
)

// Session answers RWR and PHP queries over one artifact. The
// query-independent precompute — the weighted degrees and, on summaries
// (SummarySession), the per-supernode self-loop weights, the dead ends and
// the lane layout of the superedge lists, O(|V|+|P|) in all — is computed
// once, when the session is created, so a session built with its artifact
// pays that cost once for every query the artifact ever answers: the
// amortization the paper's multi-query serving workloads (§IV, §V) rely
// on. The plain entry points (RWR, SummaryRWR, ...) build a throwaway
// session per call.
//
// A session is immutable after construction: each call allocates its own
// iteration vectors and returns its answer in a vector of its own, so
// results outlive the session and one session is safe for concurrent use
// by any number of goroutines.
type Session interface {
	// RWR answers random walk with restart w.r.t. q (Alg. 6).
	RWR(q graph.NodeID, cfg RWRConfig) ([]float64, error)
	// PHP answers penalized hitting probability w.r.t. q.
	PHP(q graph.NodeID, cfg PHPConfig) ([]float64, error)
}

// NewSession returns a Session over any Oracle, running the generic
// (neighborhood-query) implementations of RWR and PHP. It computes the
// weighted degrees with one pass over every neighborhood.
func NewSession(o Oracle) Session {
	n := o.NumNodes()
	wdeg := make([]float64, n)
	for u := 0; u < n; u++ {
		o.ForEachNeighbor(graph.NodeID(u), func(_ graph.NodeID, w float64) {
			wdeg[u] += w
		})
	}
	return &oracleSession{o: o, wdeg: wdeg}
}

// oracleSession runs the generic implementations over the weighted degrees
// computed by NewSession; it is never written after construction.
type oracleSession struct {
	o    Oracle
	wdeg []float64
}

// RWR answers random walk with restart over the generic oracle. The
// neighbor callback is hoisted out of the iteration loops: allocating a
// closure per node per iteration was measurable GC pressure at serving
// rates (it captures share/next by reference, so the vector swap below
// still works).
//
//pegasus:hotpath
func (s *oracleSession) RWR(q graph.NodeID, cfg RWRConfig) ([]float64, error) {
	cfg = cfg.withDefaults()
	n := s.o.NumNodes()
	if int(q) >= n {
		return nil, fmt.Errorf("queries: query node %d out of range (|V|=%d)", q, n)
	}
	// The iteration vectors are this call's own, allocated before the span
	// starts so that it times the iterations alone.
	r, next := make([]float64, n), make([]float64, n)
	// The session-evaluation span: a no-op unless the caller attached a
	// trace to cfg.Ctx (the serving layer does per request).
	iters := 0
	_, sp := obs.StartSpan(cfg.Ctx, "session.rwr")
	defer func() { sp.AttrInt("nodes", n); sp.AttrInt("iterations", iters); sp.End() }()
	c := 1 - cfg.Restart
	// Re-sliced to n so the compiler can elide bounds checks.
	wdeg := s.wdeg[:n]
	var share float64
	spread := func(v graph.NodeID, w float64) {
		next[v] += share * w
	}
	for i := range r {
		r[i] = 1 / float64(n)
	}
	for iter := 0; iter < cfg.MaxIter; iter++ {
		if err := ctxErr(cfg.Ctx); err != nil {
			return nil, err
		}
		iters = iter + 1
		for i := range next {
			next[i] = 0
		}
		dead := 0.0
		for u := 0; u < n; u++ {
			if r[u] == 0 {
				continue
			}
			if wdeg[u] == 0 {
				dead += r[u]
				continue
			}
			share = r[u] / wdeg[u]
			s.o.ForEachNeighbor(graph.NodeID(u), spread)
		}
		delta := 0.0
		for i := range next {
			next[i] *= c
		}
		next[q] += cfg.Restart + c*dead
		for i := range next {
			d := next[i] - r[i]
			if d < 0 {
				d = -d
			}
			delta += d
		}
		r, next = next, r
		if delta < cfg.Eps {
			break
		}
	}
	return r, nil
}

// PHP answers penalized hitting probability over the generic oracle; the
// accumulator closure is hoisted for the same reason as in RWR (it reads p
// through the captured variable, which tracks the vector swap).
//
//pegasus:hotpath
func (s *oracleSession) PHP(q graph.NodeID, cfg PHPConfig) ([]float64, error) {
	cfg = cfg.withDefaults()
	n := s.o.NumNodes()
	if int(q) >= n {
		return nil, fmt.Errorf("queries: query node %d out of range (|V|=%d)", q, n)
	}
	// Every iteration writes all of next, so only p needs initializing.
	p, next := make([]float64, n), make([]float64, n)
	p[q] = 1
	iters := 0
	_, sp := obs.StartSpan(cfg.Ctx, "session.php")
	defer func() { sp.AttrInt("nodes", n); sp.AttrInt("iterations", iters); sp.End() }()
	// Re-sliced to n for bounds-check elimination.
	wdeg := s.wdeg[:n]
	var sum float64
	accum := func(v graph.NodeID, w float64) {
		sum += w * p[v]
	}
	for iter := 0; iter < cfg.MaxIter; iter++ {
		if err := ctxErr(cfg.Ctx); err != nil {
			return nil, err
		}
		iters = iter + 1
		delta := 0.0
		for u := 0; u < n; u++ {
			if graph.NodeID(u) == q {
				next[u] = 1
				continue
			}
			if wdeg[u] == 0 {
				next[u] = 0
				continue
			}
			sum = 0
			s.o.ForEachNeighbor(graph.NodeID(u), accum)
			next[u] = cfg.C * sum / wdeg[u]
			if d := next[u] - p[u]; d > delta {
				delta = d
			} else if -d > delta {
				delta = -d
			}
		}
		p, next = next, p
		if delta < cfg.Eps {
			break
		}
	}
	return p, nil
}
