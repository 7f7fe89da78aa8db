// Package distributed implements the paper's application (§IV):
// "communication-free" distributed multi-query answering. The node set is
// partitioned into m subsets; machine i holds either a summary graph
// personalized to subset V_i (the PeGaSus approach, Alg. 3) or a
// size-bounded subgraph composed of the edges closest to V_i (the
// graph-partitioning alternative of §IV). Each query on node q is routed to
// the machine owning q and answered locally, with zero inter-machine
// communication.
package distributed

import (
	"context"
	"errors"
	"fmt"

	"pegasus/internal/core"
	"pegasus/internal/graph"
	"pegasus/internal/obs"
	"pegasus/internal/par"
	"pegasus/internal/persist"
	"pegasus/internal/queries"
	"pegasus/internal/summary"
)

// Machine is one worker holding a local artifact it can answer queries on.
type Machine struct {
	// Summary is non-nil on summary machines (PeGaSus / SSumM clusters).
	Summary *summary.Summary
	// Subgraph is non-nil on subgraph machines (graph-partitioning
	// clusters). It spans the full node-ID space, with only local edges.
	Subgraph *graph.Graph
}

// SizeBits returns the memory footprint of the machine's artifact.
func (m *Machine) SizeBits() float64 {
	if m.Summary != nil {
		return m.Summary.AutoSizeBits()
	}
	if m.Subgraph != nil {
		return m.Subgraph.SizeBits()
	}
	return 0
}

// Oracle returns neighborhood access to the machine's artifact — the single
// dispatch point between summary and subgraph machines for the generic
// (Appendix A) algorithms.
func (m *Machine) Oracle() queries.Oracle {
	if m.Summary != nil {
		return queries.SummaryOracle{S: m.Summary}
	}
	return queries.GraphOracle{G: m.Subgraph}
}

// NewSession returns a query session over the machine's artifact — the
// one place a machine picks between the summary and the subgraph
// evaluators for RWR and PHP. The session computes the artifact's query
// precompute (weighted degrees, self-loop weights) once and is safe for
// concurrent use, so a server keeps one per machine for the artifact's
// lifetime.
func (m *Machine) NewSession() queries.Session {
	if m.Summary != nil {
		return queries.NewSummarySession(m.Summary)
	}
	return queries.NewSession(queries.GraphOracle{G: m.Subgraph})
}

// RWR answers a random-walk-with-restart query on the machine's artifact
// through a one-shot session.
func (m *Machine) RWR(q graph.NodeID, cfg queries.RWRConfig) ([]float64, error) {
	return m.NewSession().RWR(q, cfg)
}

// HOP answers a shortest-path-length query on the machine's artifact.
func (m *Machine) HOP(q graph.NodeID) ([]int32, error) {
	if m.Summary != nil {
		return queries.SummaryHOP(m.Summary, q)
	}
	return queries.GraphHOP(m.Subgraph, q)
}

// PHP answers a penalized-hitting-probability query on the machine's
// artifact through a one-shot session.
func (m *Machine) PHP(q graph.NodeID, cfg queries.PHPConfig) ([]float64, error) {
	return m.NewSession().PHP(q, cfg)
}

// Cluster is a set of machines plus the node→machine routing table (the
// "mapping function from nodes to summary graphs" of §I).
type Cluster struct {
	// Assign maps each node to the machine answering its queries.
	Assign []uint32
	// Machines are the m workers.
	Machines []*Machine
	// Keys are the per-machine content keys (ShardKey) when the cluster was
	// built with BuildOpts.ConfigKey set; nil otherwise. A later build may
	// transplant any machine whose key it reproduces.
	Keys []string
}

// Route returns the machine index that answers queries on node q.
func (c *Cluster) Route(q graph.NodeID) (uint32, error) {
	if int(q) >= len(c.Assign) {
		return 0, fmt.Errorf("distributed: query node %d out of range", q)
	}
	return c.Assign[q], nil
}

// RouteMachine returns the machine that answers queries on node q — the
// shard-routing primitive of the serving layer.
func (c *Cluster) RouteMachine(q graph.NodeID) (*Machine, error) {
	i, err := c.Route(q)
	if err != nil {
		return nil, err
	}
	// BuildSummaryCluster validates labels, but Assign tables can also be
	// hand-assembled or deserialized; an out-of-range label must surface as
	// an error on the serving path, not a panic.
	if int(i) >= len(c.Machines) {
		return nil, fmt.Errorf("distributed: node %d assigned to machine %d, but cluster has %d machines",
			q, i, len(c.Machines))
	}
	return c.Machines[i], nil
}

// MaxMachineBits returns the largest per-machine footprint — the memory a
// deployment must provision per worker.
func (c *Cluster) MaxMachineBits() float64 {
	max := 0.0
	for _, m := range c.Machines {
		if s := m.SizeBits(); s > max {
			max = s
		}
	}
	return max
}

// RWR answers a random-walk-with-restart query for q on q's machine only.
func (c *Cluster) RWR(q graph.NodeID, cfg queries.RWRConfig) ([]float64, error) {
	m, err := c.RouteMachine(q)
	if err != nil {
		return nil, err
	}
	return m.RWR(q, cfg)
}

// HOP answers a shortest-path-length query for q on q's machine only.
func (c *Cluster) HOP(q graph.NodeID) ([]int32, error) {
	m, err := c.RouteMachine(q)
	if err != nil {
		return nil, err
	}
	return m.HOP(q)
}

// PHP answers a penalized-hitting-probability query for q on q's machine.
func (c *Cluster) PHP(q graph.NodeID, cfg queries.PHPConfig) ([]float64, error) {
	m, err := c.RouteMachine(q)
	if err != nil {
		return nil, err
	}
	return m.PHP(q, cfg)
}

// Summarizer produces a summary of g personalized to the given target set
// within budgetBits, honoring ctx for cancellation. The PeGaSus and SSumM
// entry points both match.
type Summarizer func(ctx context.Context, g *graph.Graph, targets []graph.NodeID, budgetBits float64) (*summary.Summary, error)

// PegasusSummarizer adapts core.SummarizeCtx to the Summarizer shape with
// the given base configuration (targets and budget are overridden per
// machine).
func PegasusSummarizer(base core.Config) Summarizer {
	return func(ctx context.Context, g *graph.Graph, targets []graph.NodeID, budgetBits float64) (*summary.Summary, error) {
		cfg := base
		cfg.Targets = targets
		cfg.BudgetBits = budgetBits
		cfg.BudgetRatio = 0
		res, err := core.SummarizeCtx(ctx, g, cfg)
		if err != nil {
			return nil, err
		}
		return res.Summary, nil
	}
}

// BuildSummaryCluster implements Alg. 3's preprocessing: for each part i of
// the given partition (labels in [0,m)), build a summary personalized to
// V_i within budgetBits and load it on machine i. The m builds run
// concurrently with up to GOMAXPROCS in flight; BuildSummaryClusterCtx
// exposes cancellation, the concurrency knob, workload-restricted targets
// and incremental reuse.
func BuildSummaryCluster(g *graph.Graph, labels []uint32, m int, budgetBits float64, summarize Summarizer) (*Cluster, error) {
	//lint:ctxflow public convenience entry point for callers without a context; the Ctx variant is the propagating path
	c, _, err := BuildSummaryClusterCtx(context.Background(), g, labels, m, budgetBits, summarize, BuildOpts{})
	return c, err
}

// BuildOpts are the optional knobs of BuildSummaryClusterCtx. The zero
// value reproduces the plain Alg. 3 build: GOMAXPROCS-bounded concurrent
// shard builds, each shard personalized to its whole part, no reuse.
type BuildOpts struct {
	// Workers bounds concurrent shard builds (0 = GOMAXPROCS,
	// 1 = sequential). The resulting cluster is identical for every value.
	Workers int
	// Targets, when non-empty, restricts personalization to a workload:
	// shard i's resolved target set becomes the intersection of its part
	// with Targets (in part order). A shard whose part contains no
	// requested target is untouched by the request and keeps Alg. 3's
	// default — personalization to its whole part — so a target change
	// confined to one part re-keys (and rebuilds) exactly that shard.
	// Empty Targets personalizes every shard to its whole part.
	Targets []graph.NodeID
	// ConfigKey is the fingerprint of the summarizer's output-relevant
	// configuration (core.Config.ContentKey for PegasusSummarizer). When
	// non-empty, the build computes a ShardKey per machine, records them on
	// Cluster.Keys, and may transplant machines from Prev. Callers using a
	// custom Summarizer must guarantee the key covers every input that
	// changes its output besides (graph, targets, budget); an empty key
	// disables reuse entirely.
	ConfigKey string
	// GraphToken, when non-empty, skips recomputing GraphToken(g) — for
	// callers that rebuild over one immutable graph and have the token
	// cached. It MUST equal GraphToken(g), or the reuse-safety argument is
	// void.
	GraphToken string
	// Prev is a previous cluster whose machines may be transplanted: any
	// shard whose content key matches a key of Prev reuses that machine's
	// summary verbatim instead of rebuilding. Equal keys imply bit-identical
	// artifacts (summaries are immutable and a build is deterministic for
	// a fixed seed), so reuse is undetectable except in build time. Requires ConfigKey; Prev clusters without Keys are ignored.
	Prev *Cluster
	// Store is an on-disk artifact store consulted per shard after Prev:
	// a shard whose content key is filed in the store decodes that artifact
	// instead of rebuilding (the disk twin of a Prev transplant — equal keys
	// imply bit-identical artifacts, so a disk hit honors the same
	// bit-identity contract), and freshly built shards are written back
	// best-effort under their keys, making the next cold start warm.
	// Requires ConfigKey; corrupt or version-mismatched artifacts are
	// treated as absent and the shard is rebuilt. Unkeyable builds (empty
	// ConfigKey) never touch the store — their artifacts would be filed
	// under no reachable name.
	Store *persist.Store
}

// BuildSummaryClusterCtx is BuildSummaryCluster with cooperative
// cancellation and the BuildOpts knobs: explicit build parallelism,
// workload-restricted targets, and incremental reuse of a previous
// cluster's machines (only shards whose content key differs from every key
// of opts.Prev are rebuilt; the rest are transplanted). The shard builds
// are independent — the §IV scheme is communication-free — so the
// resulting cluster is identical for every worker count, and, by the
// content-key argument above, for every Prev. The first build error
// cancels the remaining builds and is returned; ctx cancellation does the
// same with ctx.Err().
func BuildSummaryClusterCtx(ctx context.Context, g *graph.Graph, labels []uint32, m int, budgetBits float64, summarize Summarizer, opts BuildOpts) (*Cluster, BuildStats, error) {
	stats := BuildStats{}
	if len(labels) != g.NumNodes() {
		return nil, stats, fmt.Errorf("distributed: labels length %d != |V| %d", len(labels), g.NumNodes())
	}
	if m < 1 {
		return nil, stats, fmt.Errorf("distributed: need at least one machine, got m=%d", m)
	}
	parts := make([][]graph.NodeID, m)
	for u, l := range labels {
		if int(l) >= m {
			return nil, stats, fmt.Errorf("distributed: label %d out of range (m=%d)", l, m)
		}
		parts[l] = append(parts[l], graph.NodeID(u))
	}
	targets, err := resolveTargets(g, parts, opts.Targets)
	if err != nil {
		return nil, stats, err
	}

	c := &Cluster{Assign: labels, Machines: make([]*Machine, m)}
	stats.ReusedShards = make([]bool, m)
	stats.LoadedShards = make([]bool, m)
	toBuild := make([]int, 0, m)
	if opts.ConfigKey != "" {
		token := opts.GraphToken
		if token == "" {
			token = GraphToken(g)
		}
		c.Keys = make([]string, m)
		for i := range c.Keys {
			c.Keys[i] = ShardKey(token, targets[i], budgetBits, opts.ConfigKey)
		}
		// Match by key, not by index: a relabeled or permuted partition can
		// still reuse any previous machine that holds the exact artifact.
		prevByKey := make(map[string]*Machine)
		if opts.Prev != nil {
			for j, k := range opts.Prev.Keys {
				if j < len(opts.Prev.Machines) && opts.Prev.Machines[j] != nil && opts.Prev.Machines[j].Summary != nil {
					prevByKey[k] = opts.Prev.Machines[j]
				}
			}
		}
		for i := 0; i < m; i++ {
			if prev, ok := prevByKey[c.Keys[i]]; ok {
				c.Machines[i] = prev // transplant: bit-identical by key equality
				stats.ReusedShards[i] = true
				stats.Reused++
				continue
			}
			toBuild = append(toBuild, i)
		}
	} else {
		for i := 0; i < m; i++ {
			toBuild = append(toBuild, i)
		}
	}
	// The store is only addressable through content keys; without them it
	// would file artifacts under no reachable name, so it is ignored.
	store := opts.Store
	if opts.ConfigKey == "" {
		store = nil
	}

	buildCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	errs := make([]error, m)
	par.ForEach(opts.Workers, len(toBuild), func(_, k int) {
		i := toBuild[k]
		if err := buildCtx.Err(); err != nil {
			errs[i] = err
			return
		}
		// Each shard build is one span; child phase spans (shingle, merge,
		// …) parent under it via shardCtx. Span appends are mutex-serialized
		// in the trace, so parallel shards interleave safely.
		shardCtx, sp := obs.StartSpan(buildCtx, "build.shard")
		sp.AttrInt("shard", i)
		defer sp.End()
		if store != nil {
			// Disk twin of the Prev transplant: the key certifies the bytes,
			// so a decoded artifact is bit-identical to what a rebuild would
			// produce. Errors (corrupt, version-mismatched) demote to a
			// rebuild; the node-count check guards against a foreign or
			// hash-colliding file sneaking past the key.
			_, gsp := obs.StartSpan(shardCtx, "store.get")
			a, ok, _ := store.Get(c.Keys[i])
			gsp.End()
			if ok && a.Summary != nil && a.Summary.NumNodes() == g.NumNodes() {
				c.Machines[i] = &Machine{Summary: a.Summary}
				stats.LoadedShards[i] = true
				sp.Attr("source", "store")
				return
			}
		}
		s, err := summarize(shardCtx, g, targets[i], budgetBits)
		if err != nil {
			errs[i] = err
			cancel() // first error wins: stop the remaining builds
			return
		}
		c.Machines[i] = &Machine{Summary: s}
		sp.Attr("source", "summarize")
		if store != nil {
			// Best-effort persistence: a failed write costs the next boot a
			// rebuild, not this one; the store counts the error.
			_ = store.Put(c.Keys[i], persist.Artifact{Summary: s})
		}
	})
	for _, loaded := range stats.LoadedShards {
		if loaded {
			stats.Loaded++
		}
	}
	stats.Rebuilt = len(toBuild) - stats.Loaded

	// A cancelled caller context is not any machine's fault; report it as
	// plain ctx.Err() rather than blaming whichever shard noticed first.
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	// Report the root cause deterministically: the lowest-indexed machine
	// whose failure is not just the cancellation fallout of another's.
	var firstErr error
	for i, err := range errs {
		if err == nil || errors.Is(err, context.Canceled) {
			continue
		}
		return nil, stats, fmt.Errorf("distributed: machine %d: %w", i, err)
	}
	for i, err := range errs {
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("distributed: machine %d: %w", i, err)
		}
	}
	if firstErr != nil {
		return nil, stats, firstErr
	}
	return c, stats, nil
}

// resolveTargets computes each shard's resolved target set: the
// part∩targets intersection in part order, with parts the request does not
// touch (no target falls in them, or targets is empty altogether) keeping
// their whole part per Alg. 3. The resolved sets — not the raw parts — are
// what shard content keys fingerprint, so only the touched shards re-key.
func resolveTargets(g *graph.Graph, parts [][]graph.NodeID, targets []graph.NodeID) ([][]graph.NodeID, error) {
	if len(targets) == 0 {
		return parts, nil
	}
	mark := make([]bool, g.NumNodes())
	for _, t := range targets {
		if int(t) >= len(mark) {
			return nil, fmt.Errorf("distributed: target %d out of range (|V|=%d)", t, g.NumNodes())
		}
		mark[t] = true
	}
	out := make([][]graph.NodeID, len(parts))
	for i, part := range parts {
		for _, u := range part {
			if mark[u] {
				out[i] = append(out[i], u)
			}
		}
		if len(out[i]) == 0 {
			out[i] = part // untouched part: keep whole-part personalization
		}
	}
	return out, nil
}
