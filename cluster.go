package pegasus

import (
	"context"
	"fmt"

	"pegasus/internal/core"
	"pegasus/internal/distributed"
	"pegasus/internal/partition"
)

// Distributed "communication-free" multi-query answering (§IV of the paper):
// partition the node set over m machines, give each machine a summary
// personalized to its part (or a size-bounded local subgraph), and route
// every query to the machine owning the query node — no inter-machine
// communication at query time.

type (
	// Cluster is a set of machines plus the node→machine routing table.
	Cluster = distributed.Cluster
	// Machine is one worker holding a summary or a subgraph.
	Machine = distributed.Machine
)

// Partitioning method names accepted by PartitionGraph.
const (
	PartitionLouvain = string(partition.MethodLouvain)
	PartitionBLP     = string(partition.MethodBLP)
	PartitionSHPI    = string(partition.MethodSHPI)
	PartitionSHPII   = string(partition.MethodSHPII)
	PartitionSHPKL   = string(partition.MethodSHPKL)
	PartitionRandom  = string(partition.MethodRandom)
)

// PartitionGraph divides the nodes of g into m balanced parts using the
// named method ("louvain", "blp", "shpi", "shpii", "shpkl" or "random").
func PartitionGraph(g *Graph, m int, method string, seed int64) ([]uint32, error) {
	switch partition.Method(method) {
	case partition.MethodLouvain, partition.MethodBLP, partition.MethodSHPI,
		partition.MethodSHPII, partition.MethodSHPKL, partition.MethodRandom:
		return partition.Partition(g, m, partition.Method(method), seed), nil
	default:
		return nil, fmt.Errorf("pegasus: unknown partition method %q", method)
	}
}

// BuildSummaryCluster builds the Alg. 3 cluster: machine i holds a PeGaSus
// summary of g personalized to part i (labels in [0,m)), each within
// budgetBits. cfg carries the remaining PeGaSus settings (α, β, seed, ...).
// The m per-shard summaries build concurrently (§IV is communication-free,
// so the builds are independent) with up to GOMAXPROCS in flight; use
// BuildSummaryClusterCtx for cancellation and an explicit worker bound.
// Note that shard concurrency holds that many engines' working state in
// memory at once; bound it with BuildSummaryClusterCtx(..., workers) when
// building large graphs near the memory limit.
func BuildSummaryCluster(g *Graph, labels []uint32, m int, budgetBits float64, cfg Config) (*Cluster, error) {
	//lint:ctxflow public convenience entry point for callers without a context; the Ctx variant is the propagating path
	return BuildSummaryClusterCtx(context.Background(), g, labels, m, budgetBits, cfg, 0)
}

// BuildSummaryClusterCtx is BuildSummaryCluster with cooperative
// cancellation and an explicit bound on concurrent shard builds (workers;
// 0 = GOMAXPROCS, 1 = sequential). The first shard failure cancels the
// remaining builds. Each shard's engine runs sequentially, so the build
// runs at most workers engines at once. The resulting cluster is identical
// for every worker count and fixed seed.
func BuildSummaryClusterCtx(ctx context.Context, g *Graph, labels []uint32, m int, budgetBits float64, cfg Config, workers int) (*Cluster, error) {
	c, _, err := BuildSummaryClusterIncremental(ctx, g, labels, m, budgetBits, cfg,
		ClusterBuildOptions{Workers: workers})
	return c, err
}

// ClusterBuildStats reports how an incremental cluster build satisfied each
// shard (rebuilt from scratch vs transplanted from the previous cluster).
type ClusterBuildStats = distributed.BuildStats

// ClusterBuildOptions are the optional knobs of BuildSummaryClusterIncremental.
type ClusterBuildOptions struct {
	// Workers bounds concurrent shard builds (0 = GOMAXPROCS,
	// 1 = sequential); the cluster is identical for every value.
	Workers int
	// Targets, when non-empty, restricts personalization to a workload:
	// shard i's target set becomes the intersection of its partition part
	// with Targets, and parts containing no target keep Alg. 3's default
	// (personalization to the whole part) — so a target change confined to
	// one part rebuilds exactly that shard. Empty Targets personalizes
	// every shard to its whole part.
	Targets []NodeID
	// Prev is a previous cluster to reuse: shards whose content key — a
	// fingerprint of (graph, resolved targets, budget, config) — matches a
	// shard of Prev are transplanted instead of rebuilt. The transplanted
	// artifacts are bit-identical to what a from-scratch build would
	// produce, so reuse only changes build time.
	Prev *Cluster
	// Store is an on-disk artifact store (OpenArtifactStore) consulted
	// after Prev: shards whose content key is filed there decode the
	// artifact instead of rebuilding — a warm start from a populated store
	// summarizes nothing — and freshly built shards are persisted back
	// best-effort. Corrupt or version-mismatched artifacts are rebuilt.
	Store *ArtifactStore
}

// BuildSummaryClusterIncremental is the reuse-aware cluster build: it
// rebuilds only the shards whose content key differs from every shard of
// opts.Prev and transplants the rest, returning per-shard build stats. With
// a nil Prev it degenerates to a full build that additionally records the
// content keys enabling future reuse.
//
// Configurations carrying a custom Threshold policy cannot be fingerprinted
// (core.Config.ContentKey); they build every shard and record no keys.
func BuildSummaryClusterIncremental(ctx context.Context, g *Graph, labels []uint32, m int, budgetBits float64, cfg Config, opts ClusterBuildOptions) (*Cluster, ClusterBuildStats, error) {
	key, _ := core.Config(cfg).ContentKey() // "" (no reuse) on unkeyable configs
	return distributed.BuildSummaryClusterCtx(ctx, g, labels, m, budgetBits,
		distributed.PegasusSummarizer(core.Config(cfg)), distributed.BuildOpts{
			Workers:   opts.Workers,
			Targets:   opts.Targets,
			ConfigKey: key,
			Prev:      opts.Prev,
			Store:     opts.Store,
		})
}

// BuildSubgraphCluster builds the graph-partitioning alternative of §IV:
// machine i holds the subgraph of size ≤ budgetBits composed of the edges
// closest to part i.
func BuildSubgraphCluster(g *Graph, labels []uint32, m int, budgetBits float64) (*Cluster, error) {
	return distributed.BuildSubgraphCluster(g, labels, m, budgetBits)
}
