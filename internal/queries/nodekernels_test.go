package queries

import (
	"math"

	"pegasus/internal/graph"
	"pegasus/internal/summary"
)

// The node-level summary kernels: every node of the summary iterates on
// its own, in node order, with its supernode's weighted degree and
// self-loop weight and the session's inflow. They are the reference the
// supernode-granular kernels must reproduce bit for bit.

// nodeRWR is the node-level RWR. It returns the answer and the L1 change
// of every iteration, in order.
func nodeRWR(ss *SummarySession, q graph.NodeID, cfg RWRConfig) ([]float64, []float64) {
	cfg = cfg.withDefaults()
	s := ss.s
	n, ns := s.NumNodes(), s.NumSupernodes()
	r, next := make([]float64, n), make([]float64, n)
	mass, superIn := make([]float64, ns+1), make([]float64, ns+1)
	c := 1 - cfg.Restart
	superOf := s.SupernodeOf()
	for i := range r {
		r[i] = 1 / float64(n)
	}
	var deltas []float64
	for iter := 0; iter < cfg.MaxIter; iter++ {
		clear(mass)
		dead := 0.0
		x := next[:n]
		for u, ru := range r {
			xu := 0.0
			if w := ss.wdeg[superOf[u]]; w == 0 {
				dead += ru
			} else {
				xu = ru / w
				mass[superOf[u]] += xu
			}
			x[u] = xu
		}
		ss.inflow(superIn, mass)
		restart := cfg.Restart + c*dead
		delta := 0.0
		for u, ru := range r {
			su := superOf[u]
			v := c * (superIn[su] - ss.selfW[su]*x[u])
			if u == int(q) {
				v += restart
			}
			delta += math.Abs(v - ru)
			x[u] = v
		}
		r, next = next, r
		deltas = append(deltas, delta)
		if delta < cfg.Eps {
			break
		}
	}
	return r, deltas
}

// nodePHP is the node-level PHP. It returns the answer and its iteration
// count.
func nodePHP(ss *SummarySession, q graph.NodeID, cfg PHPConfig) ([]float64, int) {
	cfg = cfg.withDefaults()
	s := ss.s
	n, ns := s.NumNodes(), s.NumSupernodes()
	p, next := make([]float64, n), make([]float64, n)
	p[q] = 1
	sumPHP, superIn := make([]float64, ns+1), make([]float64, ns+1)
	superOf := s.SupernodeOf()
	iters := 0
	for iter := 0; iter < cfg.MaxIter; iter++ {
		iters = iter + 1
		clear(sumPHP)
		for u, pu := range p {
			sumPHP[superOf[u]] += pu
		}
		ss.inflow(superIn, sumPHP)
		delta := 0.0
		for u, pu := range p {
			su := superOf[u]
			if u == int(q) {
				next[u] = 1
				continue
			}
			if ss.wdeg[su] == 0 {
				next[u] = 0
				continue
			}
			v := cfg.C * (superIn[su] - ss.selfW[su]*pu) / ss.wdeg[su]
			if d := math.Abs(v - pu); d > delta {
				delta = d
			}
			next[u] = v
		}
		p, next = next, p
		if delta < cfg.Eps {
			break
		}
	}
	return p, iters
}

// memberHOP is the member-level summary BFS: when a superedge reaches a
// supernode, each of its members still unreached gets the next distance.
func memberHOP(s *summary.Summary, q graph.NodeID) []int32 {
	n := s.NumNodes()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[q] = 0
	assigned := make([]int, s.NumSupernodes())
	sq := s.Supernode(q)
	assigned[sq] = 1
	frontier := []uint32{sq}
	for d := int32(0); len(frontier) > 0; d++ {
		var next []uint32
		for _, x := range frontier {
			s.ForEachSuperNeighbor(x, func(y uint32, _ float64) {
				if assigned[y] == len(s.Members(y)) {
					return
				}
				newly := 0
				for _, v := range s.Members(y) {
					if dist[v] == -1 {
						dist[v] = d + 1
						newly++
					}
				}
				if newly > 0 {
					assigned[y] += newly
					next = append(next, y)
				}
			})
		}
		frontier = next
	}
	return dist
}
