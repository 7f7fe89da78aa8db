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
// plus one query session per machine, made when the backend is built,
// loaded or transplanted. Backends are immutable after construction; POST
// /v1/summarize builds a replacement and the server swaps the pointer.
type backend struct {
	c *distributed.Cluster
	// sessions[i] answers RWR and PHP on machine i. It holds the
	// artifact's query precompute (weighted degrees, self-loop weights),
	// paid once here instead of once per request, and is safe for
	// concurrent use.
	sessions []queries.Session
}

func newBackend(c *distributed.Cluster) *backend {
	sessions := make([]queries.Session, len(c.Machines))
	for i, m := range c.Machines {
		sessions[i] = m.NewSession()
	}
	return &backend{c: c, sessions: sessions}
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

// buildBackend constructs the serving artifact: a single summary
// personalized to cfg.Targets, or — when cfg.Shards >= 2 — an Alg. 3
// cluster where shard i holds a summary personalized to partition part i
// (restricted to cfg.Targets ∩ part i when targets are set).
// cfg.BuildWorkers bounds the build parallelism (concurrent shard builds
// plus the engine's internal pipeline) and ctx cancels summarization
// mid-build — a disconnected POST /v1/summarize client stops burning CPU.
//
// The build is incremental: each shard gets a content key — a fingerprint
// of (graph, resolved target set, budget share, workers-independent config)
// — and shards whose key matches a shard of prev transplant that artifact
// instead of rebuilding (equal keys imply bit-identical summaries, see
// internal/distributed). A non-nil store adds the disk tier: shards not
// satisfied by prev decode their artifact from the store when filed there,
// and freshly built shards are persisted back — a restart with a populated
// cache dir builds nothing. Returned alongside the backend: the per-shard
// keys and the rebuilt/reused/loaded stats. graphToken is the cached
// distributed.GraphToken of g.
func buildBackend(ctx context.Context, g *graph.Graph, cfg Config, graphToken string, prev *backendBox, store *persist.Store) (*backend, []string, distributed.BuildStats, error) {
	budgetBits := cfg.BudgetRatio * g.SizeBits()
	if cfg.Shards <= 1 {
		return buildSingle(ctx, g, cfg, budgetBits, graphToken, prev, store)
	}
	// Split the worker budget between the two levels of parallelism: up to
	// BuildWorkers shard builds in flight, each engine using the leftover
	// share, so the build never runs more than ~BuildWorkers goroutines.
	// The artifact is identical for any split (the pipeline is
	// worker-count invariant).
	concurrentShards := cfg.BuildWorkers
	if concurrentShards > cfg.Shards {
		concurrentShards = cfg.Shards
	}
	perEngine := cfg.BuildWorkers / concurrentShards
	if perEngine < 1 {
		perEngine = 1
	}
	base := core.Config{Alpha: cfg.Alpha, Seed: cfg.Seed, Workers: perEngine}
	// The partition depends only on (graph, Shards, PartitionMethod, Seed),
	// none of which /v1/summarize can change, so labels — and with them the
	// node→shard routing — are stable across hot rebuilds.
	labels := partition.Partition(g, cfg.Shards, partition.Method(cfg.PartitionMethod), cfg.Seed)
	cfgKey, _ := base.ContentKey() // server configs never set Threshold, but stay safe
	var prevCluster *distributed.Cluster
	if prev != nil {
		prevCluster = prev.be.c
	}
	c, stats, err := distributed.BuildSummaryClusterCtx(ctx, g, labels, cfg.Shards, budgetBits,
		distributed.PegasusSummarizer(base), distributed.BuildOpts{
			Workers:    cfg.BuildWorkers,
			Targets:    cfg.Targets,
			ConfigKey:  cfgKey,
			GraphToken: graphToken,
			Prev:       prevCluster,
			Store:      store,
		})
	if err != nil {
		return nil, nil, stats, fmt.Errorf("server: build cluster: %w", err)
	}
	return newBackend(c), c.Keys, stats, nil
}

// buildSingle is the unsharded arm of buildBackend: one summary
// personalized to cfg.Targets, served as a 1-machine cluster and keyed as
// one shard so no-op rebuilds reuse it and a configured store can
// warm-start it from disk.
func buildSingle(ctx context.Context, g *graph.Graph, cfg Config, budgetBits float64, graphToken string, prev *backendBox, store *persist.Store) (*backend, []string, distributed.BuildStats, error) {
	ccfg := core.Config{
		Targets:    cfg.Targets,
		Alpha:      cfg.Alpha,
		Seed:       cfg.Seed,
		BudgetBits: budgetBits,
		Workers:    cfg.BuildWorkers,
	}
	stats := distributed.BuildStats{ReusedShards: make([]bool, 1), LoadedShards: make([]bool, 1)}
	var keys []string
	if ck, ok := ccfg.ContentKey(); ok {
		keys = []string{distributed.ShardKey(graphToken, cfg.Targets, budgetBits, ck)}
		if prev != nil && len(prev.keys) == 1 && prev.keys[0] == keys[0] {
			stats.Reused = 1
			stats.ReusedShards[0] = true
			return prev.be, keys, stats, nil
		}
		if store != nil {
			if a, ok, _ := store.Get(keys[0]); ok && a.Summary != nil && a.Summary.NumNodes() == g.NumNodes() {
				stats.Loaded = 1
				stats.LoadedShards[0] = true
				return singleBackend(a.Summary), keys, stats, nil
			}
		}
	}
	res, err := core.SummarizeCtx(ctx, g, ccfg)
	if err != nil {
		return nil, nil, stats, fmt.Errorf("server: summarize: %w", err)
	}
	stats.Rebuilt = 1
	if store != nil && len(keys) == 1 {
		_ = store.Put(keys[0], persist.Artifact{Summary: res.Summary}) // best-effort; store counts failures
	}
	return singleBackend(res.Summary), keys, stats, nil
}

// singleBackend serves one summary as a 1-machine cluster: every node
// routes to machine 0.
func singleBackend(s *summary.Summary) *backend {
	return newBackend(&distributed.Cluster{
		Assign:   make([]uint32, s.NumNodes()),
		Machines: []*distributed.Machine{{Summary: s}},
	})
}
