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
// summaries, the per-supernode self-loop weights and the lane layout of the
// superedge lists, O(|V|+|P|) in all — is computed once, when the session
// is created, so a session built with its artifact pays that cost once for
// every query the artifact ever answers: the amortization the paper's
// multi-query serving workloads (§IV, §V) rely on. The plain entry points (RWR, SummaryRWR, ...) build a throwaway
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
// superedges, and lays the superedge lists out in lanes for inflow.
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
	ss.layLanes()
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

// lanes is the number of supernodes whose inflow sums run side by side;
// inflow's loop bodies are written out for exactly this many.
const lanes = 4

// summarySession runs the block-accelerated implementations over the
// weighted degrees, self-loop weights and lane layout computed by
// NewSummarySession; it is never written after construction.
//
// The lane layout holds the superedge lists in the order inflow reads
// them. The supernodes, longest list first and ties by ID, are cut into
// chunks of lanes; laneOf[c][k] is the supernode in lane k of chunk c.
// The chunk's lists are interleaved entry by entry in the rows
// laneNbr[laneStart[c]:laneStart[c+1]], one row per entry of its longest
// list: row laneStart[c]+j holds entry j of every lane. Lists shorter than
// the chunk's first are padded with the sentinel supernode ns (and weight
// 0), which also fills the lanes past the last supernode; the iteration
// vectors carry a slot for it that stays +0.
type summarySession struct {
	s           *summary.Summary
	wdeg, selfW []float64
	laneOf      [][lanes]uint32
	laneStart   []int
	laneNbr     [][lanes]uint32
	laneWts     [][lanes]float64 // parallel to laneNbr; nil when every weight is 1
}

// layLanes builds the lane layout: a counting sort of the supernodes by
// descending list length (ascending ID within a length), then one pass
// that copies every list into its lane.
func (ss *summarySession) layLanes() {
	s := ss.s
	ns := s.NumSupernodes()
	longest := 0
	for a := 0; a < ns; a++ {
		longest = max(longest, s.SuperDegree(uint32(a)))
	}
	// at[l] is where the first supernode with a list of length longest−l
	// goes.
	at := make([]int, longest+2)
	for a := 0; a < ns; a++ {
		at[longest-s.SuperDegree(uint32(a))+1]++
	}
	for l := 1; l < len(at); l++ {
		at[l] += at[l-1]
	}
	pad := [lanes]uint32{uint32(ns), uint32(ns), uint32(ns), uint32(ns)}
	ss.laneOf = make([][lanes]uint32, (ns+lanes-1)/lanes)
	for c := range ss.laneOf {
		ss.laneOf[c] = pad
	}
	for a := 0; a < ns; a++ {
		l := longest - s.SuperDegree(uint32(a))
		ss.laneOf[at[l]/lanes][at[l]%lanes] = uint32(a)
		at[l]++
	}
	ss.laneStart = make([]int, len(ss.laneOf)+1)
	for c, of := range ss.laneOf {
		ss.laneStart[c+1] = ss.laneStart[c] + s.SuperDegree(of[0])
	}
	ss.laneNbr = make([][lanes]uint32, ss.laneStart[len(ss.laneOf)])
	for r := range ss.laneNbr {
		ss.laneNbr[r] = pad
	}
	if s.Weighted() {
		ss.laneWts = make([][lanes]float64, len(ss.laneNbr))
	}
	for c, of := range ss.laneOf {
		first := ss.laneStart[c]
		for k, a := range of {
			if int(a) == ns {
				continue
			}
			nbr, wts := s.SuperNeighbors(a)
			for j, b := range nbr {
				ss.laneNbr[first+j][k] = b
				if ss.laneWts != nil {
					ss.laneWts[first+j][k] = wts[j]
				}
			}
		}
	}
}

// RWR is the block-accelerated random walk with restart. One iteration is
// three plain passes over slices, with no call per superedge:
//
//  1. per node, x_u = r[u]/wdeg[u] (computed once, kept in next until pass
//     3 overwrites it), summed into the mass of u's supernode; a dead end's
//     r[u] goes to the dead-end mass instead and its x_u is 0;
//  2. per supernode, the inflow Σ_{B adj A} w_AB · mass_B, summed in the
//     order of A's sorted superedge list, four supernodes at a time (see
//     inflow);
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
	// Σ_{u∈A} r[u]/wdeg[u] and Σ_{B adj A} w_AB · mass_B, each with a +0
	// slot for the lane layout's sentinel.
	mass, superIn := make([]float64, ns+1), make([]float64, ns+1)
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
	// Σ_{v∈A} p[v] and Σ_{B adj A} w_AB · sumPHP_B, each with a +0 slot
	// for the lane layout's sentinel.
	sumPHP, superIn := make([]float64, ns+1), make([]float64, ns+1)
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
// the terms in the order of a's sorted superedge list. It walks the lane
// layout a chunk at a time with one accumulator per lane, so the four
// chains of dependent additions overlap instead of running one after the
// other. in and x carry the sentinel's slot: x[ns] must be +0, and in[ns]
// is set to +0 when the last chunk has lanes past the last supernode.
//
// The bits equal those of one sum per supernode: a lane adds exactly its
// supernode's terms in list order, then the padding's +0 terms, and a sum
// that starts at +0 never becomes −0, so adding +0 leaves it unchanged.
// Without weights the term is x[B] itself, which is 1·x[B] exactly.
//
//pegasus:hotpath
func (ss *summarySession) inflow(in, x []float64) {
	for c := range ss.laneOf {
		lo, hi := ss.laneStart[c], ss.laneStart[c+1]
		rows := ss.laneNbr[lo:hi]
		var s0, s1, s2, s3 float64
		if ss.laneWts == nil {
			for r := range rows {
				e := &rows[r]
				s0 += x[e[0]]
				s1 += x[e[1]]
				s2 += x[e[2]]
				s3 += x[e[3]]
			}
		} else {
			wts := ss.laneWts[lo:hi]
			wts = wts[:len(rows)] // so wts[r] needs no bounds check
			for r := range rows {
				e, w := &rows[r], &wts[r]
				s0 += w[0] * x[e[0]]
				s1 += w[1] * x[e[1]]
				s2 += w[2] * x[e[2]]
				s3 += w[3] * x[e[3]]
			}
		}
		a := &ss.laneOf[c]
		in[a[0]], in[a[1]], in[a[2]], in[a[3]] = s0, s1, s2, s3
	}
}
