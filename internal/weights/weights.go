// Package weights implements the personalized weighting of Eq. (2):
//
//	W_uv = α^{−(D(u,T)+D(v,T))} / Z
//
// where D(u,T) is the minimum hop count between u and any target node, α ≥ 1
// is the degree of personalization, and Z normalizes the average weight over
// all ordered node pairs (u ≠ v) to 1.
//
// The factorization W_uv = π_u·π_v/Z with π_u = α^{−D(u,T)} is what makes
// PeGaSus linear: per-supernode aggregates Π_A = Σ_{u∈A} π_u and
// Q_A = Σ_{u∈A} π_u² suffice to evaluate all pairwise error terms (the
// paper's online-appendix Eqs. 13–15).
package weights

import (
	"fmt"
	"math"

	"pegasus/internal/graph"
)

// Weights holds the per-node personalized weights for one (T, α) choice.
type Weights struct {
	Alpha float64 // degree of personalization (α ≥ 1)
	Pi    []float64
	Z     float64 // normalizer: mean of π_u·π_v over ordered pairs u≠v is 1
	dist  []int32 // D(u,T); Unreached for nodes disconnected from T
}

// New computes personalized weights for target set targets on g. An empty or
// nil target set, or α == 1, yields the non-personalized uniform weighting
// (π ≡ 1, Z = 1), under which Eq. (1) reduces to the plain reconstruction
// error (§III-G).
//
// Nodes unreachable from every target receive the smallest weight observed
// plus one hop (they are "infinitely far"; using diameter+1 keeps weights
// positive and the cost function finite).
func New(g *graph.Graph, targets []graph.NodeID, alpha float64) (*Weights, error) {
	n := g.NumNodes()
	// NaN fails every comparison, so alpha < 1 alone would let it through.
	if math.IsNaN(alpha) || math.IsInf(alpha, 0) || alpha < 1 {
		return nil, fmt.Errorf("weights: alpha must be finite and >= 1, got %v", alpha)
	}
	w := &Weights{Alpha: alpha, Pi: make([]float64, n)}
	if len(targets) == 0 || alpha == 1 {
		for i := range w.Pi {
			w.Pi[i] = 1
		}
		w.Z = 1
		w.dist = make([]int32, n) // all zeros: D(u,V)=0 for T=V semantics
		return w, nil
	}
	for _, t := range targets {
		if int(t) >= n {
			return nil, fmt.Errorf("weights: target %d out of range (|V|=%d)", t, n)
		}
	}
	w.dist = graph.MultiSourceBFS(g, targets)
	maxD := int32(0)
	for _, d := range w.dist {
		if d > maxD {
			maxD = d
		}
	}
	for u, d := range w.dist {
		if d == graph.Unreached {
			d = maxD + 1
		}
		w.Pi[u] = math.Pow(alpha, -float64(d))
	}
	w.Z = normalizer(w.Pi)
	return w, nil
}

// normalizer computes Z per Footnote 2:
// Z = [ (Σ_u π_u)² − Σ_u π_u² ] / (|V|·(|V|−1)), the average of π_u·π_v over
// ordered pairs u ≠ v.
func normalizer(pi []float64) float64 {
	n := len(pi)
	if n < 2 {
		return 1
	}
	var sum, sumSq float64
	for _, p := range pi {
		sum += p
		sumSq += p * p
	}
	z := (sum*sum - sumSq) / (float64(n) * float64(n-1))
	if z <= 0 {
		return 1 // degenerate (all-zero π); keep the cost finite
	}
	return z
}

// Distance returns D(u,T) (hops to the closest target), or -1 when u is
// disconnected from every target.
func (w *Weights) Distance(u graph.NodeID) int32 { return w.dist[u] }

// Pair returns W_uv = π_u·π_v/Z for u ≠ v; the diagonal is never used by the
// objective but returns the analogous value.
func (w *Weights) Pair(u, v graph.NodeID) float64 {
	return w.Pi[u] * w.Pi[v] / w.Z
}

// TotalPi returns Σ_u π_u.
func (w *Weights) TotalPi() float64 {
	var s float64
	for _, p := range w.Pi {
		s += p
	}
	return s
}

// Uniform returns the non-personalized weighting over n nodes (π ≡ 1, Z=1),
// the SSumM objective.
func Uniform(n int) *Weights {
	pi := make([]float64, n)
	for i := range pi {
		pi[i] = 1
	}
	return &Weights{Alpha: 1, Pi: pi, Z: 1, dist: make([]int32, n)}
}
