// Command pegasus-serve runs the summary-serving HTTP daemon: it loads (or
// generates) a graph, builds a personalized summary — or a sharded cluster
// of summaries with a node→shard routing table (§IV) — and answers
// node-similarity queries over JSON endpoints until interrupted.
// POST /v1/summarize hot-reconfigures it with incremental per-shard
// rebuilds (only shards whose targets/budget actually changed are rebuilt).
// See API.md at the repo root for the complete endpoint reference.
//
// Usage:
//
//	pegasus-serve -graph g.txt -addr :8080
//	pegasus-serve -ingest web-Stanford.txt.gz -shards 4           # real SNAP graph
//	pegasus-serve -gen-nodes 5000 -shards 4 -partition louvain -budget 0.3
//	pegasus-serve -graph g.txt -shards 4 -cache-dir /var/cache/pegasus   # warm restarts
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/query/rwr -d '{"node": 42}'
//	curl -s -X POST localhost:8080/v1/query/topk -d '{"node": 42, "k": 5}'
//	curl -s -X POST localhost:8080/v1/query/batch -d '{"kind": "rwr", "nodes": [1, 2, 42]}'
//	curl -s -X POST localhost:8080/v1/summarize -d '{"targets": [17, 23]}'
//	curl -s localhost:8080/metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pegasus"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		gPath    = flag.String("graph", "", "edge list to serve; empty generates an SBM graph")
		ingPath  = flag.String("ingest", "", "real-graph edge list to serve through the parallel SNAP ingester (plain or .gz; comments, duplicate edges, self-loops and sparse node IDs handled; overrides -graph)")
		ingWkrs  = flag.Int("ingest-workers", 0, "ingestion goroutines (0 = GOMAXPROCS; the ingested graph is identical for any value)")
		nodes    = flag.Int("gen-nodes", 2000, "generated graph: node count")
		comms    = flag.Int("gen-communities", 8, "generated graph: community count")
		deg      = flag.Float64("gen-degree", 12, "generated graph: average degree")
		mixing   = flag.Float64("gen-mixing", 0.05, "generated graph: inter-community mixing")
		shards   = flag.Int("shards", 1, "serving shards (>=2 builds an Alg. 3 cluster)")
		method   = flag.String("partition", "random", "partition method: louvain | blp | shpi | shpii | shpkl | random")
		budget   = flag.Float64("budget", 0.5, "per-shard summary budget as a fraction of Size(G)")
		alpha    = flag.Float64("alpha", 0, "degree of personalization (0 = default 1.25)")
		targets  = flag.String("targets", "", "comma-separated target nodes: each shard personalizes to its part ∩ targets, or to its whole part when no target falls in it (unsharded, the part is V: empty means non-personalized)")
		seed     = flag.Int64("seed", 0, "random seed for partitioning and summarization")
		cache    = flag.Int("cache", 4096, "query-result cache entries (negative disables)")
		workers  = flag.Int("workers", 0, "concurrent query computations (0 = GOMAXPROCS)")
		batchMax = flag.Int("batch-max", 256, "max query nodes per POST /v1/query/batch request")
		bworkers = flag.Int("build-workers", 0, "build-pipeline goroutines for startup and hot rebuilds (0 = GOMAXPROCS, 1 = sequential; artifact is identical either way)")
		cacheDir = flag.String("cache-dir", "", "directory for disk-backed shard artifacts: shards are persisted under their content keys and restarts warm-start from disk instead of rebuilding (empty disables)")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-query timeout")
		slowThr  = flag.Duration("slowlog-threshold", 500*time.Millisecond, "record requests at or above this latency in GET /debug/slowlog with their span timeline (negative disables)")
		slowCap  = flag.Int("slowlog-entries", 128, "slow-query log ring-buffer capacity")
		dbgAddr  = flag.String("debug-addr", "", "listen address for the debug server (pprof, /debug/runtime, /debug/slowlog, /metrics); empty disables. Bind it to loopback: profiling endpoints are for operators, not clients")
	)
	flag.Parse()

	var (
		g   *pegasus.Graph
		err error
	)
	switch {
	case *ingPath != "":
		res, ierr := pegasus.IngestEdgeListFile(*ingPath, pegasus.IngestOptions{Workers: *ingWkrs})
		if ierr != nil {
			fatal("ingest graph: %v", ierr)
		}
		g = res.Graph
		st := res.Stats
		fmt.Printf("ingested %s: %d nodes, %d edges (dropped %d self-loops, %d duplicates; remapped=%v, gzip=%v)\n",
			*ingPath, st.Nodes, st.Edges, st.SelfLoops, st.Duplicates, st.Remapped, st.Gzip)
	case *gPath != "":
		g, err = pegasus.LoadGraph(*gPath)
		if err != nil {
			fatal("load graph: %v", err)
		}
		fmt.Printf("loaded %s: %d nodes, %d edges\n", *gPath, g.NumNodes(), g.NumEdges())
	default:
		g = pegasus.GenerateSBM(*nodes, *comms, *deg, *mixing, *seed)
		fmt.Printf("generated SBM graph: %d nodes, %d edges, %d communities\n",
			g.NumNodes(), g.NumEdges(), *comms)
	}

	tg, err := parseTargets(*targets)
	if err != nil {
		fatal("parse targets: %v", err)
	}
	cfg := pegasus.ServerConfig{
		Addr:             *addr,
		Shards:           *shards,
		PartitionMethod:  *method,
		BudgetRatio:      *budget,
		Targets:          tg,
		Alpha:            *alpha,
		Seed:             *seed,
		CacheEntries:     *cache,
		Workers:          *workers,
		BatchMax:         *batchMax,
		BuildWorkers:     *bworkers,
		CacheDir:         *cacheDir,
		QueryTimeout:     *timeout,
		SlowLogThreshold: *slowThr,
		SlowLogEntries:   *slowCap,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Printf("building serving artifact (%d shard(s), budget %.2f, method %s)...\n",
		*shards, *budget, *method)
	start := time.Now()
	s, err := pegasus.NewServer(ctx, g, cfg)
	if err != nil {
		fatal("build: %v", err)
	}
	if *cacheDir != "" {
		bs := s.BootStats()
		fmt.Printf("artifact cache %s: %d shard(s) loaded from disk, %d built (and persisted)\n",
			*cacheDir, bs.Loaded, bs.Rebuilt)
	}
	fmt.Printf("ready in %v; serving on %s\n", time.Since(start).Round(time.Millisecond), *addr)
	if *dbgAddr != "" {
		dbg := &http.Server{Addr: *dbgAddr, Handler: s.DebugHandler()}
		go func() {
			fmt.Printf("debug server (pprof, slowlog, runtime) on %s\n", *dbgAddr)
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "pegasus-serve: debug server: %v\n", err)
			}
		}()
		defer dbg.Close()
	}
	if err := s.Run(ctx); err != nil {
		fatal("serve: %v", err)
	}
	fmt.Println("shut down cleanly")
}

func parseTargets(s string) ([]pegasus.NodeID, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]pegasus.NodeID, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 32)
		if err != nil {
			return nil, err
		}
		out = append(out, pegasus.NodeID(v))
	}
	return out, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pegasus-serve: "+format+"\n", args...)
	os.Exit(1)
}
