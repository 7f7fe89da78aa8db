package queries

import (
	"fmt"
	"math"
	"slices"

	"pegasus/internal/graph"
	"pegasus/internal/obs"
	"pegasus/internal/summary"
)

// lanes is the number of supernodes whose inflow sums run side by side;
// inflow's loop bodies are written out for exactly this many.
const lanes = 4

// SummarySession answers RWR, PHP and HOP queries on one summary graph at
// supernode granularity. The reconstructed adjacency is block-constant
// (Alg. 4), so every member of a supernode other than the query node q
// takes the same value in every iteration, bit for bit: the kernels keep
// one value per supernode plus q's own. An iteration reads and writes
// vectors of |S| entries: one pass over the supernodes and one over the
// padded lane entries of the superedge lists, O(|S|+|P|), plus, for RWR,
// one read per dead-end node (|D| of them). The supernode masses take one
// register addition per node, so the operation count stays O(|V|+|P|)
// at worst, but no |V|-entry vector is read or written inside the loop.
// The answers are Answers; RWR and PHP expand them into the |V|-entry
// vectors of the Session interface in one O(|V|) pass.
//
// The session holds the query-independent precompute: per supernode the
// weighted degree of its members, its self-loop weight and its member
// count, the nodes whose supernode is a dead end, and the lane layout of
// the superedge lists. It is computed once, when the session is created,
// and never written afterwards, so one session is safe for concurrent use.
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
type SummarySession struct {
	s           *summary.Summary
	wdeg, selfW []float64      // per supernode
	size        []int32        // member count per supernode
	dead        []graph.NodeID // nodes whose supernode has weighted degree 0, ascending
	laneOf      [][lanes]uint32
	laneStart   []int
	laneNbr     [][lanes]uint32
	laneWts     [][lanes]float64 // parallel to laneNbr; nil when every weight is 1
}

// NewSummarySession returns a session over a summary graph, running the
// supernode-granular implementations: per iteration O(|S|+|P|) vector
// work, one read per dead-end node (RWR) and one register addition per
// node, plus one O(|V|) expansion when an answer is returned as a vector
// (see SummarySession). It computes the weighted degrees and self-loop
// weights with one pass over the superedges, lists the dead-end nodes
// (weighted degree 0), and lays the superedge lists out in lanes for
// inflow: O(|V|+|P|), once.
func NewSummarySession(s *summary.Summary) *SummarySession {
	ns := s.NumSupernodes()
	ss := &SummarySession{s: s, wdeg: make([]float64, ns), selfW: make([]float64, ns), size: make([]int32, ns)}
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
		ss.wdeg[a] = aw
		ss.size[a] = int32(len(s.Members(uint32(a))))
	}
	for u, a := range s.SupernodeOf() {
		if ss.wdeg[a] == 0 {
			ss.dead = append(ss.dead, graph.NodeID(u))
		}
	}
	ss.layLanes()
	return ss
}

// layLanes builds the lane layout: a counting sort of the supernodes by
// descending list length (ascending ID within a length), then one pass
// that copies every list into its lane.
func (ss *SummarySession) layLanes() {
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

// RWR answers random walk with restart w.r.t. q and expands the answer to
// its |V| entries (RWRAnswer keeps it compact).
func (ss *SummarySession) RWR(q graph.NodeID, cfg RWRConfig) ([]float64, error) {
	a, err := ss.RWRAnswer(q, cfg)
	if err != nil {
		return nil, err
	}
	return a.Scores(), nil
}

// PHP answers penalized hitting probability w.r.t. q and expands the
// answer to its |V| entries (PHPAnswer keeps it compact).
func (ss *SummarySession) PHP(q graph.NodeID, cfg PHPConfig) ([]float64, error) {
	a, err := ss.PHPAnswer(q, cfg)
	if err != nil {
		return nil, err
	}
	return a.Scores(), nil
}

// RWRAnswer answers random walk with restart w.r.t. q at supernode
// granularity, without expanding the answer.
func (ss *SummarySession) RWRAnswer(q graph.NodeID, cfg RWRConfig) (*Answer, error) {
	a, _, err := ss.rwr(q, cfg)
	return a, err
}

// PHPAnswer answers penalized hitting probability w.r.t. q at supernode
// granularity, without expanding the answer.
func (ss *SummarySession) PHPAnswer(q graph.NodeID, cfg PHPConfig) (*Answer, error) {
	a, _, err := ss.php(q, cfg)
	return a, err
}

// HOPAnswer answers the shortest-path-length query w.r.t. q by one BFS
// over the supernodes, O(|S|+|P|).
func (ss *SummarySession) HOPAnswer(q graph.NodeID) (*Answer, error) {
	if n := ss.s.NumNodes(); int(q) >= n {
		return nil, fmt.Errorf("queries: query node %d out of range (|V|=%d)", q, n)
	}
	return summaryHOP(ss.s, q), nil
}

// kernelStats is what one RWR or PHP run did: its iterations, and how many
// of RWR's stop tests summed the L1 change exactly in node order.
type kernelStats struct {
	iterations, exactSums int
}

// qSlot returns q's supernode, the number of its members and q's rank
// among them (they are sorted, so members before q come first in node
// order).
func (ss *SummarySession) qSlot(q graph.NodeID) (sq uint32, size, rank int) {
	sq = ss.s.Supernode(q)
	m := ss.s.Members(sq)
	rank, _ = slices.BinarySearch(m, q)
	return sq, len(m), rank
}

// rwr is the supernode-granular random walk with restart. It reproduces,
// bit for bit, the node-order iteration in which every node u computes
// x_u = r[u]/wdeg[u] (0 at a dead end, whose r[u] goes to the dead-end
// mass), every supernode A sums its members' x_u in node order into
// mass_A, the inflow of A is Σ_{B adj A} w_AB·mass_B in list order, and
// next[u] = c·(inflow of S_u − selfW_{S_u}·x_u), plus the restart and the
// dead-end mass at q, with the L1 change summed in node order.
//
// r holds the value of each supernode's members other than q, and q's own
// at |S|. One iteration is the inflow over the lane layout and one fused
// pass over the supernodes (rwrSweep) that computes the next value, the
// change, x = r/w once per supernode and the mass for the next iteration.
// The mass of A is k copies of x_A summed left to right from +0 (sumCopies;
// never k·x_A, which rounds differently for k ≥ 4), with x_q at q's rank in
// q's supernode. The dead-end mass is the node-order sum over the dead-end
// nodes.
//
// The stop test needs the node-order L1 sum Σ_u |next[u] − r[u]|. The pass
// sums the estimate Σ_A m_A·|Δ_A| + |Δ_q| (m_A counts A's members other
// than q) instead. Both sums of these non-negative terms lie within
// (n+2)·2⁻⁵³ of the exact real sum, relatively, so the estimate decides
// unless it lies within Eps·(1 ± 4(n+2)·2⁻⁵³); only then is the node-order
// sum taken, from the changes the pass left in the inflow vector.
//
//pegasus:hotpath
func (ss *SummarySession) rwr(q graph.NodeID, cfg RWRConfig) (*Answer, kernelStats, error) {
	var st kernelStats
	cfg = cfg.withDefaults()
	s := ss.s
	n := s.NumNodes()
	if int(q) >= n {
		return nil, st, fmt.Errorf("queries: query node %d out of range (|V|=%d)", q, n)
	}
	ns := s.NumSupernodes()
	of := s.SupernodeOf()[:n]
	sq, kq, rank := ss.qSlot(q)
	// This call's own vectors, allocated before the span so that it times
	// the iterations alone: r becomes the answer, and x, mass and in
	// (mass and in with a +0 slot for the lane layout's sentinel) share
	// one scratch allocation.
	r := make([]float64, ns+1)
	scratch := make([]float64, 3*ns+2)
	x, mass, in := scratch[:ns:ns], scratch[ns:2*ns+1:2*ns+1], scratch[2*ns+1:]
	_, sp := obs.StartSpan(cfg.Ctx, "session.rwr")
	defer func() {
		sp.AttrInt("nodes", n)
		sp.AttrInt("supernodes", ns)
		sp.AttrInt("iterations", st.iterations)
		sp.End()
	}()
	c := 1 - cfg.Restart
	wdeg, selfW := ss.wdeg[:ns], ss.selfW[:ns]
	r0 := 1 / float64(n)
	for a := range r {
		r[a] = r0
	}
	for a, w := range wdeg {
		if w != 0 {
			x[a] = r0 / w
			mass[a] = sumCopies(0, x[a], int(ss.size[a]))
		}
	}
	xq := x[sq] // every node starts at 1/n, q included
	slack := 4 * float64(n+2) * 0x1p-53
	lo, hi := cfg.Eps*(1-slack), cfg.Eps*(1+slack)
	for iter := 0; iter < cfg.MaxIter; iter++ {
		if err := ctxErr(cfg.Ctx); err != nil {
			return nil, st, err
		}
		st.iterations = iter + 1
		dead := 0.0
		for _, u := range ss.dead {
			if u == q {
				dead += r[ns]
			} else {
				dead += r[of[u]]
			}
		}
		ss.inflow(in, mass)
		restart := cfg.Restart + c*dead
		// q and the other members of its supernode, then every other
		// supernode in one pass.
		vq := c*(in[sq]-selfW[sq]*xq) + restart
		vs := c * (in[sq] - selfW[sq]*x[sq])
		dq, ds := math.Abs(vq-r[ns]), math.Abs(vs-r[sq])
		r[sq], r[ns], in[sq] = vs, vq, ds
		est := float64(kq-1)*ds + dq
		est += ss.rwrSweep(0, int(sq), c, r, x, mass, in)
		est += ss.rwrSweep(int(sq)+1, ns, c, r, x, mass, in)
		if w := wdeg[sq]; w != 0 {
			x[sq], xq = vs/w, vq/w
			mass[sq] = sumCopies(sumCopies(0, x[sq], rank)+xq, x[sq], kq-1-rank)
		}
		stop := est < lo
		if !stop && est < hi {
			st.exactSums++
			delta := 0.0
			for u, a := range of {
				if graph.NodeID(u) == q {
					delta += dq
				} else {
					delta += in[a]
				}
			}
			stop = delta < cfg.Eps
		}
		if stop {
			break
		}
	}
	return &Answer{of: of, q: q, scores: r}, st, nil
}

// rwrSweep is rwr's pass over the supernodes lo ≤ a < hi, none of them
// q's: it sets r[a] to c·(in[a] − selfW_a·x[a]), in[a] to the change, and
// x[a] and mass[a] for the next iteration, and returns Σ size_a·|change|.
//
//pegasus:hotpath
func (ss *SummarySession) rwrSweep(lo, hi int, c float64, r, x, mass, in []float64) float64 {
	wdeg, selfW, size := ss.wdeg[lo:hi], ss.selfW[lo:hi], ss.size[lo:hi]
	r, x, mass, in = r[lo:hi], x[lo:hi], mass[lo:hi], in[lo:hi]
	r, x, mass, in = r[:len(wdeg)], x[:len(wdeg)], mass[:len(wdeg)], in[:len(wdeg)]
	est := 0.0
	for a, w := range wdeg {
		v := c * (in[a] - selfW[a]*x[a])
		d := math.Abs(v - r[a])
		r[a], in[a] = v, d
		k := size[a]
		est += float64(k) * d
		if w != 0 {
			x[a] = v / w
			mass[a] = sumCopies(0, x[a], int(k))
		}
	}
	return est
}

// php is the supernode-granular penalized hitting probability. It
// reproduces, bit for bit, the node-order iteration in which every
// supernode A sums its members' p[v] in node order, the inflow of A is
// Σ_{B adj A} w_AB·sum_B in list order, next[q] = 1, next[u] = 0 at a dead
// end, and otherwise next[u] = C·(inflow of S_u − selfW_{S_u}·p[u]) /
// wdeg[u], with the L∞ change over the nodes other than q and the dead
// ends. p holds the value of each supernode's members other than q, and
// q's own 1 at |S|; the sums are taken as in rwr, and the L∞ change does
// not depend on the order of the nodes.
//
//pegasus:hotpath
func (ss *SummarySession) php(q graph.NodeID, cfg PHPConfig) (*Answer, kernelStats, error) {
	var st kernelStats
	cfg = cfg.withDefaults()
	s := ss.s
	n := s.NumNodes()
	if int(q) >= n {
		return nil, st, fmt.Errorf("queries: query node %d out of range (|V|=%d)", q, n)
	}
	ns := s.NumSupernodes()
	sq, kq, rank := ss.qSlot(q)
	// This call's own vectors, allocated before the span: p becomes the
	// answer, and sum and in (each with the sentinel's +0 slot) share one
	// scratch allocation. Every node but q starts at 0.
	p := make([]float64, ns+1)
	scratch := make([]float64, 2*ns+2)
	sum, in := scratch[:ns+1:ns+1], scratch[ns+1:]
	p[ns] = 1
	sum[sq] = 1
	_, sp := obs.StartSpan(cfg.Ctx, "session.php")
	defer func() {
		sp.AttrInt("nodes", n)
		sp.AttrInt("supernodes", ns)
		sp.AttrInt("iterations", st.iterations)
		sp.End()
	}()
	for iter := 0; iter < cfg.MaxIter; iter++ {
		if err := ctxErr(cfg.Ctx); err != nil {
			return nil, st, err
		}
		st.iterations = iter + 1
		ss.inflow(in, sum)
		delta := 0.0
		if w := ss.wdeg[sq]; w != 0 && kq > 1 {
			v := cfg.C * (in[sq] - ss.selfW[sq]*p[sq]) / w
			if d := math.Abs(v - p[sq]); d > delta {
				delta = d
			}
			p[sq] = v
			sum[sq] = sumCopies(sumCopies(0, v, rank)+1, v, kq-1-rank)
		}
		if d := ss.phpSweep(0, int(sq), cfg.C, p, sum, in); d > delta {
			delta = d
		}
		if d := ss.phpSweep(int(sq)+1, ns, cfg.C, p, sum, in); d > delta {
			delta = d
		}
		if delta < cfg.Eps {
			break
		}
	}
	return &Answer{of: s.SupernodeOf(), q: q, scores: p}, st, nil
}

// phpSweep is php's pass over the supernodes lo ≤ a < hi, none of them
// q's: it sets p[a] and sum[a] for every supernode that is not a dead end
// (a dead end's members stay at 0) and returns the largest change, which,
// like the node-level test, skips a NaN change.
//
//pegasus:hotpath
func (ss *SummarySession) phpSweep(lo, hi int, C float64, p, sum, in []float64) float64 {
	wdeg, selfW, size := ss.wdeg[lo:hi], ss.selfW[lo:hi], ss.size[lo:hi]
	p, sum, in = p[lo:hi], sum[lo:hi], in[lo:hi]
	p, sum, in = p[:len(wdeg)], sum[:len(wdeg)], in[:len(wdeg)]
	delta := 0.0
	for a, w := range wdeg {
		if w == 0 {
			continue
		}
		pa := p[a]
		v := C * (in[a] - selfW[a]*pa) / w
		if d := math.Abs(v - pa); d > delta {
			delta = d
		}
		p[a] = v
		sum[a] = sumCopies(0, v, int(size[a]))
	}
	return delta
}

// sumCopies returns s+x+x+…+x with k copies of x, added left to right and
// rounded after every addition: the bits of a node-order sum in which k
// members contribute the same value. It is not k·x, which rounds once and
// differs for k ≥ 4 (and +0 + (−0) is +0). The additions touch no memory,
// so a supernode costs one register addition per member, not a visit.
func sumCopies(s, x float64, k int) float64 {
	for ; k > 0; k-- {
		s += x
	}
	return s
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
func (ss *SummarySession) inflow(in, x []float64) {
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

// summaryHOP answers HOP on s by BFS over the supernodes. All members of a
// supernode are at the same distance from q — they share their
// reconstructed neighborhood — except q itself, so the first time a
// supernode is reached from one at distance d, its members other than q
// are at d+1; q's own supernode is expanded at distance 0.
func summaryHOP(s *summary.Summary, q graph.NodeID) *Answer {
	ns := s.NumSupernodes()
	dist := make([]int32, ns+1) // dist[ns] = 0 is q's own
	for a := range dist[:ns] {
		dist[a] = -1
	}
	sq := s.Supernode(q)
	// Each supernode enters the queue once, when it is reached, and q's
	// supernode once more at the front.
	queue := make([]uint32, 1, ns+1)
	queue[0] = sq
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		d := int32(0)
		if head > 0 {
			d = dist[x]
		}
		nbr, _ := s.SuperNeighbors(x)
		for _, y := range nbr {
			if dist[y] == -1 {
				dist[y] = d + 1
				queue = append(queue, y)
			}
		}
	}
	return newHOPAnswer(s.SupernodeOf(), q, dist)
}
