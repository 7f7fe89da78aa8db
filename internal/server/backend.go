package server

import (
	"context"
	"fmt"

	"pegasus/internal/core"
	"pegasus/internal/distributed"
	"pegasus/internal/graph"
	"pegasus/internal/partition"
	"pegasus/internal/persist"
	"pegasus/internal/queries"
	"pegasus/internal/summary"
)

// backend answers queries against the serving artifact: a
// distributed.Cluster whose routing table sends each query node to the
// machine owning it (§IV) — an unsharded server is a 1-machine cluster —
// plus one query session per machine, made when the machine's artifact is
// built or loaded and carried over with a transplanted machine. Backends
// are immutable after construction; POST /v1/summarize builds a
// replacement and the server swaps the pointer.
type backend struct {
	c *distributed.Cluster
	// sessions[i] answers RWR, PHP and HOP on machine i's summary, at
	// supernode granularity. It holds the artifact's query precompute
	// (weighted degrees, self-loop weights, dead ends, the superedge lane
	// layout), paid once here instead of once per request, and is safe
	// for concurrent use.
	sessions []*queries.SummarySession
}

// newBackend makes the backend of cluster c, whose machines all hold
// summaries. A machine that a rebuild transplanted from prev (nil on a
// cold build) keeps the session prev made for it: the artifact is the same
// object, so its precompute is too.
func newBackend(c *distributed.Cluster, prev *backend) *backend {
	sessions := make([]*queries.SummarySession, len(c.Machines))
	for i, m := range c.Machines {
		sessions[i] = prev.sessionOf(m)
		if sessions[i] == nil {
			sessions[i] = queries.NewSummarySession(m.Summary)
		}
	}
	return &backend{c: c, sessions: sessions}
}

// sessionOf returns b's session for machine m, or nil when m is not one of
// b's machines (or b is nil).
func (b *backend) sessionOf(m *distributed.Machine) *queries.SummarySession {
	if b == nil {
		return nil
	}
	for j, pm := range b.c.Machines {
		if pm == m {
			return b.sessions[j]
		}
	}
	return nil
}

func (b *backend) numNodes() int  { return len(b.c.Assign) }
func (b *backend) numShards() int { return len(b.c.Machines) }

// shard returns the shard owning query node q (always 0 when unsharded).
func (b *backend) shard(q graph.NodeID) (int, error) {
	i, err := b.c.Route(q)
	return int(i), err
}

// reports describes each shard's summary artifact.
func (b *backend) reports() []summary.Report {
	out := make([]summary.Report, len(b.c.Machines))
	for i, m := range b.c.Machines {
		out[i] = m.Summary.Describe()
	}
	return out
}

// pageRankChecked runs PageRank and surfaces a context cancellation as an
// error (PageRank itself returns the partial vector on cancellation).
func pageRankChecked(o queries.Oracle, cfg queries.PageRankConfig) ([]float64, error) {
	r := queries.PageRank(o, cfg)
	if cfg.Ctx != nil {
		if err := cfg.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// buildBackend constructs the serving artifact: an Alg. 3 cluster of
// cfg.Shards machines where shard i holds a summary personalized to
// partition part i, restricted to cfg.Targets ∩ part i when that
// intersection is non-empty. An unsharded server is the 1-machine case:
// its one part is V, so it personalizes to cfg.Targets, or to V (the
// non-personalized summary) when no targets are set.
// cfg.BuildWorkers bounds the concurrent shard builds (each engine runs
// sequentially) and ctx cancels summarization mid-build — a disconnected
// POST /v1/summarize client stops burning CPU.
//
// The build is incremental: each shard gets a content key — a fingerprint
// of (graph, resolved target set, budget share, config)
// — and shards whose key matches a shard of prev transplant that artifact,
// and its session, instead of rebuilding (equal keys imply bit-identical
// summaries, see internal/distributed). A non-nil store adds the disk
// tier: shards not satisfied by prev decode their artifact from the store
// when filed there, and freshly built shards are persisted back — a
// restart with a populated cache dir builds nothing. The per-shard keys land on the cluster's Keys;
// the stats count rebuilt/reused/loaded shards. graphToken is the cached
// distributed.GraphToken of g.
func buildBackend(ctx context.Context, g *graph.Graph, cfg Config, graphToken string, prev *backendBox, store *persist.Store) (*backend, distributed.BuildStats, error) {
	budgetBits := cfg.BudgetRatio * g.SizeBits()
	// The partition depends only on (graph, Shards, PartitionMethod, Seed),
	// none of which /v1/summarize can change, so a rebuild takes the labels
	// — and with them the node→shard routing — from the previous backend
	// instead of partitioning again.
	var labels []uint32
	var prevCluster *distributed.Cluster
	var prevBackend *backend
	switch {
	case prev != nil:
		prevBackend = prev.be
		prevCluster = prev.be.c
		labels = prevCluster.Assign
	case cfg.Shards > 1:
		labels = partition.Partition(g, cfg.Shards, partition.Method(cfg.PartitionMethod), cfg.Seed)
	default:
		labels = make([]uint32, g.NumNodes()) // one part, V: no partitioner to run
	}
	c, stats, err := distributed.BuildSummaryClusterCtx(ctx, g, labels, cfg.Shards, budgetBits,
		core.Config{Alpha: cfg.Alpha, Seed: cfg.Seed}, distributed.BuildOpts{
			Workers:    cfg.BuildWorkers,
			Targets:    cfg.Targets,
			GraphToken: graphToken,
			Prev:       prevCluster,
			Store:      store,
		})
	if err != nil {
		return nil, stats, fmt.Errorf("server: build cluster: %w", err)
	}
	return newBackend(c, prevBackend), stats, nil
}
