// Package pegasus is a Go implementation of PeGaSus — Personalized Graph
// Summarization with Scalability (Kang, Lee & Shin, "Personalized Graph
// Summarization: Formulation, Scalable Algorithms, and Applications",
// ICDE 2022) — together with everything needed to use and evaluate it:
// graph construction and generators, the SSumM / k-GraSS / SAAGs / S2L
// baselines, approximate query answering on summary graphs (RWR, HOP, PHP),
// accuracy metrics, graph partitioning (Louvain, BLP, SHP) and
// communication-free distributed multi-query answering.
//
// # Quick start
//
//	g, _ := pegasus.LoadGraph("graph.txt") // "u v" edge list
//	res, _ := pegasus.Summarize(g, pegasus.Config{
//		Targets:     []pegasus.NodeID{42},  // personalize around node 42
//		BudgetRatio: 0.5,                   // half the bits of the input
//	})
//	s := res.Summary
//	neighbors := s.Neighbors(42)           // approximate neighborhood (Alg. 4)
//	scores, _ := pegasus.SummaryRWR(s, 42, pegasus.RWRConfig{})
//
// The summary graph s is a partition of the nodes into supernodes plus a
// sparse set of superedges; many graph algorithms run directly on it through
// the neighborhood query, trading exactness for memory.
//
// # Parallel builds
//
// One summary is one sequential engine: PeGaSus's merge loop (Alg. 1–2)
// is sequential by design, and SummarizeCtx aborts mid-build on context
// cancellation. The parallelism is one level up, where the paper puts it:
// BuildSummaryCluster constructs its per-shard summaries concurrently
// (ClusterBuildOptions.Workers of them at once) — the §IV scheme is
// communication-free, so shard builds are independent. Every worker count
// produces bit-identical output for a fixed seed; see DESIGN.md "The
// parallel build pipeline".
//
// # Serving
//
// pegasus-serve runs the §IV application as a daemon: it builds a summary —
// or, with -shards N, a cluster of per-part personalized summaries with a
// node→shard routing table — and answers queries over HTTP with a
// query-result cache, a bounded worker pool and per-request timeouts:
//
//	go run ./cmd/pegasus-serve -graph g.txt -shards 4 -partition louvain
//	curl -s -X POST localhost:8080/v1/query/rwr  -d '{"node": 42}'
//	curl -s -X POST localhost:8080/v1/query/topk -d '{"node": 42, "k": 5}'
//	curl -s localhost:8080/metrics
//
// (Omit -graph to serve a generated SBM graph.) Programmatic use goes
// through Serve / NewServer with a ServerConfig.
//
// # Ingesting real graphs
//
// Real-world edge lists (SNAP-style: whitespace-separated "u v" lines,
// '#' comments, optionally gzip-compressed, with duplicate edges,
// self-loops and sparse 64-bit node IDs) are loaded through the streaming
// parallel ingester, which cleans the edge set, remaps IDs onto the dense
// [0, n) space and assembles the CSR directly — bit-identical for every
// worker count:
//
//	res, _ := pegasus.IngestEdgeListFile("web-Stanford.txt.gz", pegasus.IngestOptions{})
//	g, raw := res.Graph, res.IDs            // raw[dense] = original 64-bit ID
//	fmt.Println(res.Stats.Duplicates)       // what the cleaner dropped
//
// Failures are typed (ErrIngestFormat, ErrIngestLimit — never a panic;
// fuzzed in internal/ingest), and WriteSNAP is the inverse. On the command
// line, pegasus-ingest preprocesses offline and pegasus-serve -ingest
// serves an edge list directly:
//
//	go run ./cmd/pegasus-ingest -in web-Stanford.txt.gz -verify -stats
//	go run ./cmd/pegasus-serve  -ingest web-Stanford.txt.gz -shards 4
//	go run ./cmd/pegasus-gen    -model ba -n 100000 -m 8 -format snap -out g.txt.gz
//
// # Batch queries
//
// Serving workloads are multi-query (§IV/§V: one summary answers many
// queries), so the daemon also takes a whole vector of query nodes in one
// round-trip — one kind, shared parameters, per-item results and errors:
//
//	curl -s -X POST localhost:8080/v1/query/batch \
//	  -d '{"kind": "rwr", "nodes": [1, 2, 42], "restart": 0.1}'
//
// The server routes the vector in one pass and answers per-shard groups
// concurrently. Every query, single or batched, runs on its shard's query
// session, which pays the per-artifact precompute (the weighted-degree
// scan) once, when the shard is built or loaded. The same amortization is
// available in-process; a session is safe for concurrent use:
//
//	sess := pegasus.NewSummaryQuerySession(s) // precompute paid here, once
//	for _, q := range []pegasus.NodeID{1, 2, 42} {
//		scores, _ := sess.RWR(q, pegasus.RWRConfig{})
//		probs, _ := sess.PHP(q, pegasus.PHPConfig{})
//		_, _ = scores, probs
//	}
//
// # Incremental re-summarization
//
// POST /v1/summarize hot-rebuilds the serving artifact, and the rebuild is
// incremental: every shard summary carries a content key (graph, resolved
// target set, budget share, engine config), and only shards whose key
// changed are rebuilt — the rest are transplanted bit-identically along
// with their cached query answers. On a 4-shard server, changing the
// targets inside one shard's part rebuilds exactly that shard:
//
//	curl -s -X POST localhost:8080/v1/summarize -d '{"targets": [17, 23]}'
//	// => {"generation": 2, ..., "rebuilt": 1, "reused": 3}
//	curl -s -X POST localhost:8080/v1/summarize -d '{}'
//	// => no-op: {"generation": 3, ..., "rebuilt": 0, "reused": 4}
//
// In-process, the same reuse is BuildSummaryClusterIncremental with a
// previous cluster:
//
//	c2, stats, _ := pegasus.BuildSummaryClusterIncremental(ctx, g, labels, 4, budget, cfg,
//		pegasus.ClusterBuildOptions{Targets: newTargets, Prev: c1})
//	// stats.Rebuilt == 1, stats.Reused == 3
//
// # Disk-backed artifacts and warm starts
//
// The same content keys give shard artifacts durable on-disk names: with
// pegasus-serve -cache-dir (ServerConfig.CacheDir), every built shard
// summary is persisted at <dir>/<shardkey>.pgsum in a versioned,
// checksummed binary format, and a restarted server decodes its cluster
// from disk instead of re-running summarization — bit-identical to a cold
// build, ~20x faster on the bench graph. Corrupt or version-mismatched
// artifacts are rebuilt (typed ErrArtifactCorrupt/ErrArtifactVersion,
// never a panic). In-process:
//
//	store, _ := pegasus.OpenArtifactStore("/var/cache/pegasus")
//	c1, stats, _ := pegasus.BuildSummaryClusterIncremental(ctx, g, labels, 4, budget, cfg,
//		pegasus.ClusterBuildOptions{Store: store}) // builds 4, persists 4
//	c2, stats, _ := pegasus.BuildSummaryClusterIncremental(ctx, g, labels, 4, budget, cfg,
//		pegasus.ClusterBuildOptions{Store: store}) // stats.Loaded == 4: pure decode
//
// # Contributing: enforced invariants
//
// The contracts the implementation depends on — no unordered map
// iteration in determinism-critical packages, unbroken context
// propagation, no blocking waits while holding a worker-pool slot, typed
// ErrCorrupt/ErrVersion errors in the persistence layer, and
// all-atomic-or-all-plain counter access — are mechanically enforced by
// `go run ./cmd/pegasus-lint ./...`, which must exit 0 (CI runs it, and
// TestRepoIsClean runs the same check in the test suite). A deliberate
// exception carries a `//lint:<directive> <justification>` annotation on
// the flagged line or the line above. See DESIGN.md, "Enforced
// invariants".
//
// See API.md for the complete HTTP reference (every endpoint, schema,
// status code and parameter-default rule), DESIGN.md for the system
// inventory and EXPERIMENTS.md for the reproduction of the paper's
// evaluation.
package pegasus
