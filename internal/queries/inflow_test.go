package queries

import (
	"math"
	"math/rand"
	"testing"

	"pegasus/internal/summary"
)

// plainInflow is the reference inflow: in[a] = Σ_{B adj A} w_AB · x[B],
// one sum per supernode in the order of its sorted superedge list.
func plainInflow(s *summary.Summary, in, x []float64) {
	for a := range s.NumSupernodes() {
		nbr, wts := s.SuperNeighbors(uint32(a))
		sum := 0.0
		for i, b := range nbr {
			sum += wts[i] * x[b]
		}
		in[a] = sum
	}
}

// inflowSummary draws a canonical summary with ns supernodes: about a
// quarter of them touch no superedge, and in half the draws one hub is
// adjacent to every other non-bare supernode (itself included), so its
// list is far longer than the rest, which keep each pair with probability
// 0.15. Weighted draws give every superedge a weight in (0, 1).
func inflowSummary(rng *rand.Rand, ns int, weighted bool) *summary.Summary {
	superOf := make([]uint32, ns+rng.Intn(3*ns+1))
	for u := range superOf {
		if u < ns {
			superOf[u] = uint32(u)
		} else {
			superOf[u] = uint32(rng.Intn(ns))
		}
	}
	bare := make([]bool, ns)
	for a := range bare {
		bare[a] = rng.Intn(4) == 0
	}
	hub := -1
	if ns > 0 && rng.Intn(2) == 0 {
		hub = rng.Intn(ns)
		bare[hub] = false
	}
	upper := make([][]uint32, ns)
	var weights [][]float64
	if weighted {
		weights = make([][]float64, ns)
	}
	for a := 0; a < ns; a++ {
		for b := a; b < ns; b++ {
			if bare[a] || bare[b] || (a != hub && b != hub && rng.Float64() >= 0.15) {
				continue
			}
			upper[a] = append(upper[a], uint32(b))
			if weighted {
				weights[a] = append(weights[a], math.Nextafter(rng.Float64(), 1))
			}
		}
	}
	return summary.New(superOf, upper, weights)
}

// TestInflowMatchesPerSupernodeSums: the lane kernel's inflow equals, bit
// for bit, one sum per supernode in sorted-list order, on weighted and
// unweighted summaries with |S| = 0–5 and up to 80 (most not a multiple
// of the lane count), supernodes without superedges and hub lists. The
// masses span 40 binary orders of magnitude, so a term added out of order
// shows in the rounding. Every supernode's slot must be written, and the
// sentinel's slot must stay +0.
func TestInflowMatchesPerSupernodeSums(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 600; i++ {
		ns := i % 6
		if i >= 60 {
			ns = 6 + rng.Intn(75)
		}
		weighted := i/6%2 == 1
		s := inflowSummary(rng, ns, weighted)
		ss := NewSummarySession(s)
		x := make([]float64, ns+1)
		for b := 0; b < ns; b++ {
			if rng.Intn(5) > 0 {
				x[b] = math.Ldexp(rng.Float64(), rng.Intn(40)-20)
			}
		}
		got := make([]float64, ns+1)
		for a := 0; a < ns; a++ {
			got[a] = math.NaN()
		}
		ss.inflow(got, x)
		want := make([]float64, ns)
		plainInflow(s, want, x)
		for a := range want {
			if math.Float64bits(got[a]) != math.Float64bits(want[a]) {
				t.Fatalf("draw %d (|S|=%d, weighted %v): in[%d] = %v (degree %d), want %v",
					i, ns, s.Weighted(), a, got[a], s.SuperDegree(uint32(a)), want[a])
			}
		}
		if math.Float64bits(got[ns]) != 0 {
			t.Fatalf("draw %d (|S|=%d): sentinel slot in[%d] = %v, want +0", i, ns, ns, got[ns])
		}
	}
}
