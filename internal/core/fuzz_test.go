package core

import (
	"math"
	"testing"

	"pegasus/internal/graph"
)

// FuzzSummarize runs the whole engine on small arbitrary inputs. The first
// byte sets |V| (at most 32 nodes), the remaining bytes pair up into edges,
// and the fuzzer also picks α, the budget ratio and the seed, which places
// one target. A build must not panic. It may fail only when α or the budget
// is non-finite or out of range. A summary must place every node in
// exactly one supernode, and BudgetMet must agree with Summary.SizeBits()
// against the budget.
func FuzzSummarize(f *testing.F) {
	ring := []byte{8, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 0, 0, 4}
	inf := math.Inf(1)
	f.Add(ring, 1.25, 0.5, int64(1))
	f.Add(ring, 0.0, 0.0, int64(2)) // paper defaults
	f.Add([]byte{31, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 30, 29, 1, 3, 5, 7}, 2.0, 0.1, int64(3))
	f.Add([]byte{}, 1.25, 0.5, int64(4))
	f.Add(ring, 1.0, 1e-9, int64(5)) // unreachable budget
	// Out of range or non-finite: each must be rejected.
	f.Add(ring, 0.5, 0.5, int64(6))
	f.Add(ring, 1.25, -0.5, int64(7))
	f.Add(ring, math.NaN(), 0.5, int64(8))
	f.Add(ring, inf, 0.5, int64(9))
	f.Add(ring, -inf, 0.5, int64(10))
	f.Add(ring, 1.25, math.NaN(), int64(11))
	f.Add(ring, 1.25, inf, int64(12))
	f.Add(ring, 1.25, -inf, int64(13))
	f.Add(ring, 1.25, math.MaxFloat64, int64(14)) // the budget in bits overflows
	f.Fuzz(func(t *testing.T, data []byte, alpha, ratio float64, seed int64) {
		const maxNodes = 32
		n := 0
		if len(data) > 0 {
			n = 1 + int(data[0])%maxNodes
			data = data[1:]
		}
		b := graph.NewBuilder(n)
		for i := 0; i+1 < len(data); i += 2 {
			b.AddEdge(graph.NodeID(int(data[i])%n), graph.NodeID(int(data[i+1])%n))
		}
		g := b.Build()
		cfg := Config{Alpha: alpha, BudgetRatio: ratio, Seed: seed}
		if n > 0 {
			cfg.Targets = []graph.NodeID{graph.NodeID(uint64(seed) % uint64(n))}
		}

		budget := ratio * g.SizeBits()
		if ratio == 0 {
			budget = 0.5 * g.SizeBits()
		}
		valid := (alpha == 0 || isFinite(alpha) && alpha >= 1) &&
			(ratio == 0 || isFinite(ratio) && ratio > 0 && isFinite(budget))

		res, err := Summarize(g, cfg)
		if err != nil {
			if valid {
				t.Fatalf("valid config (alpha %v, ratio %v) rejected: %v", alpha, ratio, err)
			}
			return
		}
		if !valid {
			t.Fatalf("invalid config (alpha %v, ratio %v) accepted", alpha, ratio)
		}
		s := res.Summary
		if s.NumNodes() != n {
			t.Fatalf("summary has %d nodes, graph %d", s.NumNodes(), n)
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		if met := s.SizeBits() <= budget+1e-9; met != res.BudgetMet {
			t.Fatalf("BudgetMet %t, but size %v against budget %v", res.BudgetMet, s.SizeBits(), budget)
		}
	})
}
