package queries

import (
	"fmt"
	"math"

	"pegasus/internal/graph"
	"pegasus/internal/obs"
	"pegasus/internal/summary"
)

// Session answers RWR and PHP queries over one artifact. The
// query-independent precompute — the weighted-degree vector and, on
// summaries, the per-supernode self-loop weights, one O(|V|+|P|) scan — is
// computed once, when the session is created, so a session built with its
// artifact pays that scan once for every query the artifact ever answers:
// the amortization the paper's multi-query serving workloads (§IV, §V) rely
// on. The plain entry points (RWR, SummaryRWR, ...) build a throwaway
// session per call.
//
// A session is immutable after construction: each call allocates its own
// iteration vectors and returns the last one, so results outlive the
// session and one session is safe for concurrent use by any number of
// goroutines.
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

// NewSummarySession returns a Session over a summary graph, running the
// block-accelerated implementations (O(|V|+|P|) per iteration). It computes
// the weighted degrees and self-loop weights with one pass over the
// superedges.
func NewSummarySession(s *summary.Summary) Session {
	n := s.NumNodes()
	ns := s.NumSupernodes()
	ss := &summarySession{s: s, wdeg: make([]float64, n), selfW: make([]float64, ns)}
	for a := 0; a < ns; a++ {
		var aw float64
		s.ForEachSuperNeighbor(uint32(a), func(b uint32, w float64) {
			cnt := len(s.Members(b))
			if b == uint32(a) {
				ss.selfW[a] = w
				cnt-- // a member is not its own neighbor
			}
			aw += w * float64(cnt)
		})
		for _, u := range s.Members(uint32(a)) {
			ss.wdeg[u] = aw
		}
	}
	return ss
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

// summarySession runs the block-accelerated implementations over the
// weighted degrees and self-loop weights computed by NewSummarySession; it
// is never written after construction.
type summarySession struct {
	s           *summary.Summary
	wdeg, selfW []float64
}

// RWR is the block-accelerated random walk with restart. One iteration is
// three plain passes over slices, with no call per superedge:
//
//  1. per node, x_u = r[u]/wdeg[u] (computed once, kept in next until pass
//     3 overwrites it), summed into the mass of u's supernode; a dead end's
//     r[u] goes to the dead-end mass instead and its x_u is 0;
//  2. per supernode, the inflow Σ_{B adj A} w_AB · mass_B, read from the
//     summary's sorted superedge lists;
//  3. per node, next[u] = c·(inflow of S_u − selfW_{S_u}·x_u) (u is not its
//     own neighbor; the product is +0 without a self-loop or at a dead
//     end), plus the restart and dead-end mass at q, and the L1 change
//     summed in node order.
//
// Every sum runs in node order or in superedge-list order, and
// TestQueryGoldens pins the resulting bits: a change that reorders a sum
// (splitting it into partial sums, say) moves the answers and shows there.
//
//pegasus:hotpath
func (ss *summarySession) RWR(q graph.NodeID, cfg RWRConfig) ([]float64, error) {
	cfg = cfg.withDefaults()
	s := ss.s
	n := s.NumNodes()
	if int(q) >= n {
		return nil, fmt.Errorf("queries: query node %d out of range (|V|=%d)", q, n)
	}
	ns := s.NumSupernodes()
	// This call's own vectors, allocated before the span as in the oracle
	// session.
	r, next := make([]float64, n), make([]float64, n)
	mass := make([]float64, ns)    // Σ_{u∈A} r[u]/wdeg[u]
	superIn := make([]float64, ns) // Σ_{B adj A} w_AB · mass_B
	iters := 0
	_, sp := obs.StartSpan(cfg.Ctx, "session.rwr")
	defer func() { sp.AttrInt("nodes", n); sp.AttrInt("iterations", iters); sp.End() }()
	c := 1 - cfg.Restart
	// Re-sliced to their lengths so the compiler can elide bounds checks.
	wdeg, superOf, selfW := ss.wdeg[:n], s.SupernodeOf()[:n], ss.selfW[:ns]
	for i := range r {
		r[i] = 1 / float64(n)
	}
	for iter := 0; iter < cfg.MaxIter; iter++ {
		if err := ctxErr(cfg.Ctx); err != nil {
			return nil, err
		}
		iters = iter + 1
		clear(mass)
		dead := 0.0
		x := next[:n]
		for u, ru := range r {
			xu := 0.0
			if wdeg[u] == 0 {
				dead += ru
			} else {
				xu = ru / wdeg[u]
				mass[superOf[u]] += xu
			}
			x[u] = xu
		}
		ss.inflow(superIn, mass)
		restart := cfg.Restart + c*dead
		delta := 0.0
		for u, ru := range r {
			su := superOf[u]
			v := c * (superIn[su] - selfW[su]*x[u])
			if u == int(q) {
				v += restart
			}
			delta += math.Abs(v - ru)
			x[u] = v
		}
		r, next = next, r
		if delta < cfg.Eps {
			break
		}
	}
	return r, nil
}

// PHP is the block-accelerated penalized hitting probability, in the same
// three passes as RWR: per-supernode sums of p, their inflow along the
// superedges, and per node next[u] = C·(inflow of S_u − selfW_{S_u}·p[u]) /
// wdeg[u] with the L∞ change, under the same fixed order of operations.
//
//pegasus:hotpath
func (ss *summarySession) PHP(q graph.NodeID, cfg PHPConfig) ([]float64, error) {
	cfg = cfg.withDefaults()
	s := ss.s
	n := s.NumNodes()
	if int(q) >= n {
		return nil, fmt.Errorf("queries: query node %d out of range (|V|=%d)", q, n)
	}
	ns := s.NumSupernodes()
	// This call's own vectors, allocated before the span; every iteration
	// writes all of next, so only p needs initializing.
	p, next := make([]float64, n), make([]float64, n)
	p[q] = 1
	sumPHP := make([]float64, ns)  // Σ_{v∈A} p[v]
	superIn := make([]float64, ns) // Σ_{B adj A} w_AB · sumPHP_B
	iters := 0
	_, sp := obs.StartSpan(cfg.Ctx, "session.php")
	defer func() { sp.AttrInt("nodes", n); sp.AttrInt("iterations", iters); sp.End() }()
	// Re-sliced to their lengths for bounds-check elimination.
	wdeg, superOf, selfW := ss.wdeg[:n], s.SupernodeOf()[:n], ss.selfW[:ns]
	for iter := 0; iter < cfg.MaxIter; iter++ {
		if err := ctxErr(cfg.Ctx); err != nil {
			return nil, err
		}
		iters = iter + 1
		clear(sumPHP)
		for u, pu := range p {
			sumPHP[superOf[u]] += pu
		}
		ss.inflow(superIn, sumPHP)
		delta := 0.0
		out := next[:n]
		for u, pu := range p {
			if u == int(q) {
				out[u] = 1
				continue
			}
			if wdeg[u] == 0 {
				out[u] = 0
				continue
			}
			su := superOf[u]
			v := cfg.C * (superIn[su] - selfW[su]*pu) / wdeg[u]
			if d := math.Abs(v - pu); d > delta {
				delta = d
			}
			out[u] = v
		}
		p, next = next, p
		if delta < cfg.Eps {
			break
		}
	}
	return p, nil
}

// inflow sets in[a] = Σ_{B adj A} w_AB · x[B] for every supernode a, adding
// the terms in the order of a's sorted superedge list.
//
//pegasus:hotpath
func (ss *summarySession) inflow(in, x []float64) {
	for a := range in {
		nbr, wts := ss.s.SuperNeighbors(uint32(a))
		wts = wts[:len(nbr)]
		sum := 0.0
		for i, b := range nbr {
			sum += wts[i] * x[b]
		}
		in[a] = sum
	}
}
