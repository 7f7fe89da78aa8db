package pegasus

import "pegasus/internal/queries"

// Oracle abstracts neighborhood access (Appendix A of the paper: most graph
// algorithms touch the graph only through the neighborhood query, so they
// run unchanged on exact graphs and on summaries).
type Oracle = queries.Oracle

// GraphOracle adapts a Graph to the Oracle interface (exact answers).
func GraphOracle(g *Graph) Oracle { return queries.GraphOracle{G: g} }

// SummaryOracle adapts a Summary to the Oracle interface (approximate
// answers through Alg. 4 neighborhoods, superedge weights respected).
func SummaryOracle(s *Summary) Oracle { return queries.SummaryOracle{S: s} }

// PageRankConfig parameterizes PageRank.
type PageRankConfig = queries.PageRankConfig

// PageRank computes the PageRank vector over any Oracle.
func PageRank(o Oracle, cfg PageRankConfig) []float64 { return queries.PageRank(o, cfg) }

// Degrees returns every node's (weighted) degree over any Oracle.
func Degrees(o Oracle) []float64 { return queries.Degrees(o) }

// ClusteringCoefficient returns the local clustering coefficient of u.
func ClusteringCoefficient(o Oracle, u NodeID) float64 {
	return queries.ClusteringCoefficient(o, u)
}

// EigenvectorCentrality computes eigenvector centrality by shifted power
// iteration (0 values select defaults).
func EigenvectorCentrality(o Oracle, maxIter int, eps float64) []float64 {
	return queries.EigenvectorCentrality(o, maxIter, eps)
}

// DFSOrder returns a depth-first preorder from src over any Oracle.
func DFSOrder(o Oracle, src NodeID) []NodeID { return queries.DFSOrder(o, src) }

// Dijkstra computes weighted shortest-path distances from src (superedge
// weight w crossed at cost 1/w; +Inf for unreachable nodes).
func Dijkstra(o Oracle, src NodeID) ([]float64, error) { return queries.Dijkstra(o, src) }

// RWR runs random walk with restart over any Oracle (the generic Alg. 6).
func RWR(o Oracle, q NodeID, cfg RWRConfig) ([]float64, error) { return queries.RWR(o, q, cfg) }

// HOP runs BFS hop counting over any Oracle (the generic Alg. 5).
func HOP(o Oracle, q NodeID) ([]int32, error) { return queries.HOP(o, q) }

// PHP runs penalized hitting probability over any Oracle.
func PHP(o Oracle, q NodeID, cfg PHPConfig) ([]float64, error) { return queries.PHP(o, q, cfg) }

// PushConfig parameterizes PushRWR.
type PushConfig = queries.PushConfig

// PushRWR approximates RWR by forward push (local search): it touches only
// the region where probability mass is non-negligible, making single
// queries on large graphs or summaries far cheaper than power iteration.
func PushRWR(o Oracle, q NodeID, cfg PushConfig) ([]float64, error) {
	return queries.PushRWR(o, q, cfg)
}

// TopK returns the k highest-scoring nodes in descending order (the k-NN
// answer shape), ties broken by node ID and a NaN score ranked below every
// number, in O(|V| log k).
func TopK(scores []float64, k int) []NodeID { return queries.TopK(scores, k) }

// QuerySession answers RWR/PHP queries over one artifact. It computes the
// query-independent precompute (the weighted-degree scan) once, when it is
// created, so every query after the first skips it — the amortization
// behind the paper's multi-query workloads. A session is immutable, so one
// session is safe for concurrent use by any number of goroutines.
type QuerySession = queries.Session

// NewQuerySession returns a QuerySession over any Oracle.
func NewQuerySession(o Oracle) QuerySession { return queries.NewSession(o) }

// NewSummaryQuerySession returns a QuerySession over a summary graph using
// the block-accelerated evaluators: per iteration O(|S|+|P|) work over
// the supernodes, one read per dead-end node (RWR) and one register
// addition per node, plus one O(|V|) expansion of each answer.
func NewSummaryQuerySession(s *Summary) QuerySession { return queries.NewSummarySession(s) }
