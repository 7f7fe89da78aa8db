package pegasus

import (
	"context"
	"io"

	"pegasus/internal/core"
	"pegasus/internal/gen"
	"pegasus/internal/graph"
	"pegasus/internal/metrics"
	"pegasus/internal/queries"
	"pegasus/internal/ssumm"
	"pegasus/internal/summary"
	"pegasus/internal/weights"
)

// Core types, re-exported from the internal packages so downstream users
// never import pegasus/internal/... directly.
type (
	// Graph is a simple undirected graph in CSR form.
	Graph = graph.Graph
	// NodeID identifies a node (dense integers 0..NumNodes-1).
	NodeID = graph.NodeID
	// Edge is an undirected edge.
	Edge = graph.Edge
	// GraphBuilder accumulates edges and produces a Graph.
	GraphBuilder = graph.Builder
	// Summary is a summary graph: supernodes partitioning the nodes plus
	// (optionally weighted) superedges.
	Summary = summary.Summary
	// Config parameterizes Summarize (targets, α, β, budget, ...).
	Config = core.Config
	// Result is the output of Summarize.
	Result = core.Result
	// IterStats is per-iteration engine telemetry (Config.Trace).
	IterStats = core.IterStats
	// SSumMConfig parameterizes SummarizeSSumM.
	SSumMConfig = ssumm.Config
	// RWRConfig parameterizes random walk with restart.
	RWRConfig = queries.RWRConfig
	// PHPConfig parameterizes penalized hitting probability.
	PHPConfig = queries.PHPConfig
	// Weights holds the personalized node weights of Eq. (2).
	Weights = weights.Weights
)

// NewGraphBuilder returns a builder for a graph with n nodes; out-of-range
// edge endpoints grow the node count, self-loops and duplicates are dropped.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// LoadGraph reads a whitespace-separated edge list ("u v" per line; '#' and
// '%' comments) from a file.
func LoadGraph(path string) (*Graph, error) { return graph.LoadEdgeListFile(path) }

// SaveGraph writes a graph as an edge list.
func SaveGraph(path string, g *Graph) error { return graph.SaveEdgeListFile(path, g) }

// WriteGraphCompressed serializes a graph with delta+varint coded adjacency
// (typically 3-6x smaller than fixed-width binary).
func WriteGraphCompressed(w io.Writer, g *Graph) error { return graph.WriteCompressed(w, g) }

// ReadGraphCompressed deserializes a graph written by WriteGraphCompressed.
func ReadGraphCompressed(r io.Reader) (*Graph, error) { return graph.ReadCompressed(r) }

// GraphStats summarizes structural properties of a graph.
type GraphStats = graph.Stats

// ComputeGraphStats measures degrees, triangles, transitivity and
// connectivity of g.
func ComputeGraphStats(g *Graph) GraphStats { return graph.ComputeStats(g) }

// LargestComponent extracts the largest connected component with renumbered
// node IDs (returned mapping: new ID → original ID).
func LargestComponent(g *Graph) (*Graph, []NodeID) { return graph.LargestComponent(g) }

// Summarize runs PeGaSus (Alg. 1 of the paper) and returns a summary graph
// personalized to cfg.Targets within the bit budget. The engine runs on the
// calling goroutine; build many summaries at once with BuildSummaryCluster,
// whose shard builds run concurrently.
func Summarize(g *Graph, cfg Config) (*Result, error) { return core.Summarize(g, cfg) }

// SummarizeCtx is Summarize with cooperative cancellation: the engine
// checks ctx between candidate groups and aborts with ctx.Err().
func SummarizeCtx(ctx context.Context, g *Graph, cfg Config) (*Result, error) {
	return core.SummarizeCtx(ctx, g, cfg)
}

// SummarizeNonPersonalized runs PeGaSus with T = V: the objective reduces to
// the plain reconstruction error while keeping the adaptive search.
func SummarizeNonPersonalized(g *Graph, cfg Config) (*Result, error) {
	return core.SummarizeNonPersonalized(g, cfg)
}

// SummarizeSSumM runs the SSumM baseline (Lee et al., KDD 2020): the
// non-personalized state of the art PeGaSus is built on (§III-G).
func SummarizeSSumM(g *Graph, cfg SSumMConfig) (*Result, error) { return ssumm.Summarize(g, cfg) }

// SummarizeSSumMCtx is SummarizeSSumM with cooperative cancellation.
func SummarizeSSumMCtx(ctx context.Context, g *Graph, cfg SSumMConfig) (*Result, error) {
	return ssumm.SummarizeCtx(ctx, g, cfg)
}

// LoadSummary reads a summary graph written by Summary.SaveFile.
func LoadSummary(path string) (*Summary, error) { return summary.LoadFile(path) }

// IdentitySummary returns the exact summary where every node is its own
// supernode (queries on it reproduce the input graph exactly).
func IdentitySummary(g *Graph) *Summary { return summary.Identity(g) }

// SummaryReport describes the structure of a summary graph (sizes, self
// loops, singleton count, ...); obtained via Summary.Describe.
type SummaryReport = summary.Report

// NewWeights computes the personalized weights of Eq. (2) for a target set
// and degree of personalization α ≥ 1.
func NewWeights(g *Graph, targets []NodeID, alpha float64) (*Weights, error) {
	return weights.New(g, targets, alpha)
}

// Query answering ------------------------------------------------------------

// GraphRWR computes exact random-walk-with-restart scores on the input
// graph.
func GraphRWR(g *Graph, q NodeID, cfg RWRConfig) ([]float64, error) {
	return queries.GraphRWR(g, q, cfg)
}

// SummaryRWR answers RWR approximately on a summary graph (block-accelerated
// Alg. 6).
func SummaryRWR(s *Summary, q NodeID, cfg RWRConfig) ([]float64, error) {
	return queries.SummaryRWR(s, q, cfg)
}

// GraphHOP computes exact hop distances (BFS) on the input graph.
func GraphHOP(g *Graph, q NodeID) ([]int32, error) { return queries.GraphHOP(g, q) }

// SummaryHOP answers HOP approximately on a summary graph (Alg. 5).
func SummaryHOP(s *Summary, q NodeID) ([]int32, error) { return queries.SummaryHOP(s, q) }

// GraphPHP computes exact penalized hitting probabilities on the input
// graph.
func GraphPHP(g *Graph, q NodeID, cfg PHPConfig) ([]float64, error) {
	return queries.GraphPHP(g, q, cfg)
}

// SummaryPHP answers PHP approximately on a summary graph.
func SummaryPHP(s *Summary, q NodeID, cfg PHPConfig) ([]float64, error) {
	return queries.SummaryPHP(s, q, cfg)
}

// FillUnreached replaces -1 distances with the maximum observed distance
// (the paper's convention for disconnected pairs).
func FillUnreached(dist []int32, fallback int32) []int32 {
	return queries.FillUnreached(dist, fallback)
}

// Evaluation -----------------------------------------------------------------

// SMAPE is the symmetric mean absolute percentage error (lower is better).
func SMAPE(x, xhat []float64) (float64, error) { return metrics.SMAPE(x, xhat) }

// Spearman is the Spearman rank correlation (higher is better).
func Spearman(x, xhat []float64) (float64, error) { return metrics.Spearman(x, xhat) }

// PersonalizedError evaluates the objective of Problem 1 (Eq. 1) exactly in
// O(|V|+|E|+|P|).
func PersonalizedError(g *Graph, s *Summary, w *Weights) float64 {
	return metrics.PersonalizedError(g, s, w)
}

// ReconstructionError evaluates the plain L1 reconstruction error.
func ReconstructionError(g *Graph, s *Summary) float64 {
	return metrics.ReconstructionError(g, s)
}

// Generators -----------------------------------------------------------------

// GenerateBA generates a Barabási–Albert preferential-attachment graph.
func GenerateBA(n, m int, seed int64) *Graph { return gen.BarabasiAlbert(n, m, seed) }

// GenerateWS generates a Watts–Strogatz small-world graph (k even).
func GenerateWS(n, k int, p float64, seed int64) *Graph { return gen.WattsStrogatz(n, k, p, seed) }

// GenerateER generates an Erdős–Rényi G(n,m) graph.
func GenerateER(n, m int, seed int64) *Graph { return gen.ErdosRenyi(n, m, seed) }

// GenerateSBM generates a planted-partition community graph.
func GenerateSBM(nodes, communities int, avgDegree, mixing float64, seed int64) *Graph {
	return gen.PlantedPartition(gen.SBMConfig{
		Nodes: nodes, Communities: communities, AvgDegree: avgDegree, MixingP: mixing,
	}, seed)
}

// GenerateGrid generates a w×h 4-neighbor lattice with a fraction of random
// highway chords — a road-network-like graph.
func GenerateGrid(w, h int, highways float64, seed int64) *Graph {
	return gen.Grid2D(w, h, highways, seed)
}
