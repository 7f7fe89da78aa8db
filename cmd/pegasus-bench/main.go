// Command pegasus-bench tracks the perf trajectory of the repo's hot paths
// across PRs. It times (a) sequential vs concurrent shard builds of a
// 4-shard Alg. 3 cluster, (b) incremental vs full cluster rebuilds after a
// 1-of-m-shards targets change, the content-key reuse behind hot
// POST /v1/summarize reconfiguration, and (c) cold vs warm cluster
// starts, where the warm arm decodes every shard artifact from a populated
// disk store (the cache dir behind pegasus-serve -cache-dir) instead of
// summarizing. Results go to a JSON file (BENCH_summarize.json by
// convention, committed at the repo root and regenerated by CI). The
// scale-tagged smoke test covers the 10^5-node ingest → build → query
// path: go test -tags scale -run TestScale -timeout 20m -v .
//
// Usage:
//
//	pegasus-bench -out BENCH_summarize.json
//	pegasus-bench -nodes 5000 -shards 8 -runs 5 -workers 8
//	pegasus-bench -min-incremental-speedup 2.0 -min-warm-speedup 3.0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"pegasus"
	"pegasus/internal/persist"
)

// Result is one benchmark row: op latency statistics for a named build
// configuration.
type Result struct {
	Name      string  `json:"name"`
	Shards    int     `json:"shards"`
	Workers   int     `json:"workers"`
	Runs      int     `json:"runs"`
	NsPerOp   int64   `json:"ns_per_op"` // minimum over runs: least-noise estimate
	MeanNs    int64   `json:"mean_ns"`
	MaxNs     int64   `json:"max_ns"`
	MsPerOp   float64 `json:"ms_per_op"`
	Supernode int     `json:"supernodes"` // sanity anchor: must match across workers
}

// Report is the BENCH_summarize.json schema.
type Report struct {
	Graph struct {
		Nodes int   `json:"nodes"`
		Edges int64 `json:"edges"`
		Seed  int64 `json:"seed"`
	} `json:"graph"`
	Host struct {
		GoMaxProcs int    `json:"gomaxprocs"`
		NumCPU     int    `json:"num_cpu"`
		GoVersion  string `json:"go_version"`
		OS         string `json:"os"`
		Arch       string `json:"arch"`
	} `json:"host"`
	Results []Result `json:"results"`
	// SpeedupCluster is parallel-vs-sequential for the sharded build; on a
	// single-core host it hovers near 1 regardless of implementation.
	SpeedupCluster float64 `json:"speedup_cluster"`
	// SpeedupIncremental is full-vs-incremental cluster rebuild after a
	// targets change confined to 1 of m shards: the incremental build
	// transplants the other m-1 summaries by content key. Both arms run
	// sequentially, so the ratio (≈m ideally) is core-count independent.
	SpeedupIncremental float64 `json:"speedup_incremental"`
	// SpeedupWarm is cold-vs-warm cluster start: the warm arm decodes every
	// shard from the disk artifact store instead of summarizing, so it is
	// pure IO+decode and the ratio is core-count independent (both arms run
	// sequentially).
	SpeedupWarm float64 `json:"speedup_warm"`
}

func main() {
	var (
		out      = flag.String("out", "BENCH_summarize.json", "output JSON file")
		nodes    = flag.Int("nodes", 2000, "benchmark graph node count")
		comms    = flag.Int("communities", 4, "benchmark graph community count")
		shards   = flag.Int("shards", 4, "cluster benchmark shard count")
		runs     = flag.Int("runs", 3, "timed repetitions per configuration")
		workers  = flag.Int("workers", 0, "concurrent shard builds of the parallel cluster arm, benchmarked against one at a time (0 = GOMAXPROCS, floored at the shard count)")
		budget   = flag.Float64("budget", 0.4, "summary budget as a fraction of Size(G)")
		seed     = flag.Int64("seed", 1, "graph/partition/summarization seed")
		minSpeed = flag.Float64("min-cluster-speedup", 0, "fail unless the cluster build speedup reaches this factor; only enforced when the host has at least `shards` CPUs (0 disables)")
		minIncr  = flag.Float64("min-incremental-speedup", 0, "fail unless an incremental 1-of-shards rebuild beats the full rebuild by this factor (0 disables; core-count independent)")
		minWarm  = flag.Float64("min-warm-speedup", 0, "fail unless a warm start from a populated artifact cache beats the cold build by this factor (0 disables; core-count independent)")
		cacheDir = flag.String("cache-dir", "", "artifact cache directory for the warm-start arms (empty uses a temp dir; pass a path to keep/upload the populated cache)")
	)
	flag.Parse()
	if *runs < 1 {
		fmt.Fprintf(os.Stderr, "pegasus-bench: -runs must be at least 1, got %d\n", *runs)
		flag.Usage()
		os.Exit(2)
	}

	// The parallel arm builds every shard at once, and never builds one at
	// a time even on a 1-CPU host, so the two arms never silently collapse
	// into timings of the identical configuration; the report records the
	// true core count for interpreting the resulting speedup.
	clusterPar := *workers
	if clusterPar == 0 {
		clusterPar = runtime.GOMAXPROCS(0)
	}
	clusterPar = max(clusterPar, *shards, 2)

	g := pegasus.GenerateSBM(*nodes, *comms, 12, 0.05, *seed)
	g, _ = pegasus.LargestComponent(g)
	budgetBits := *budget * g.SizeBits()

	var rep Report
	rep.Graph.Nodes = g.NumNodes()
	rep.Graph.Edges = g.NumEdges()
	rep.Graph.Seed = *seed
	rep.Host.GoMaxProcs = runtime.GOMAXPROCS(0)
	rep.Host.NumCPU = runtime.NumCPU()
	rep.Host.GoVersion = runtime.Version()
	rep.Host.OS = runtime.GOOS
	rep.Host.Arch = runtime.GOARCH

	labels, err := pegasus.PartitionGraph(g, *shards, pegasus.PartitionRandom, *seed)
	if err != nil {
		fatal("partition: %v", err)
	}

	buildCluster := func(workers int) (int, error) {
		c, err := pegasus.BuildSummaryClusterCtx(context.Background(), g, labels, *shards, budgetBits,
			pegasus.Config{Seed: *seed}, workers)
		if err != nil {
			return 0, err
		}
		return c.Machines[0].Summary.NumSupernodes(), nil
	}

	bench := func(name string, shards, workers int, fn func(int) (int, error)) Result {
		fmt.Fprintf(os.Stderr, "benchmarking %-24s (workers=%d, %d runs)...\n", name, workers, *runs)
		r := Result{Name: name, Shards: shards, Workers: workers, Runs: *runs}
		var total, min, max time.Duration
		for i := 0; i < *runs; i++ {
			start := time.Now()
			sn, err := fn(workers)
			el := time.Since(start)
			if err != nil {
				fatal("%s: %v", name, err)
			}
			r.Supernode = sn
			total += el
			if i == 0 || el < min {
				min = el
			}
			if el > max {
				max = el
			}
		}
		r.NsPerOp = min.Nanoseconds()
		r.MeanNs = (total / time.Duration(*runs)).Nanoseconds()
		r.MaxNs = max.Nanoseconds()
		r.MsPerOp = float64(r.NsPerOp) / 1e6
		return r
	}

	seqC := bench("cluster_build_sequential", *shards, 1, buildCluster)
	parC := bench("cluster_build_parallel", *shards, clusterPar, buildCluster)
	rep.Results = []Result{seqC, parC}
	if parC.NsPerOp > 0 {
		rep.SpeedupCluster = float64(seqC.NsPerOp) / float64(parC.NsPerOp)
	}
	if seqC.Supernode != parC.Supernode {
		fatal("parallel and sequential builds disagree on supernode counts — determinism broken")
	}

	// Incremental vs full rebuild after a 1-of-m-shards targets change.
	// Both arms build one shard at a time, so the ratio isolates the
	// content-key reuse — on m=4, the incremental arm rebuilds 1 shard where
	// the full arm rebuilds 4, so the ideal ratio is ≈m regardless of core
	// count.
	icfg := pegasus.Config{Seed: *seed}
	prevC, _, err := pegasus.BuildSummaryClusterIncremental(context.Background(), g, labels,
		*shards, budgetBits, icfg, pegasus.ClusterBuildOptions{Workers: 1})
	if err != nil {
		fatal("incremental bench: initial build: %v", err)
	}
	// Change the targets of part 0 only: keep every node except every
	// second member of part 0, so only shard 0's resolved target set (and
	// content key) differs from the initial build.
	changed := make([]pegasus.NodeID, 0, g.NumNodes())
	inPart := 0
	for u := 0; u < g.NumNodes(); u++ {
		if labels[u] == 0 {
			inPart++
			if inPart%2 == 0 {
				continue
			}
		}
		changed = append(changed, pegasus.NodeID(u))
	}
	var fullC, incrC *pegasus.Cluster
	fullFn := func(int) (int, error) {
		c, st, err := pegasus.BuildSummaryClusterIncremental(context.Background(), g, labels,
			*shards, budgetBits, icfg, pegasus.ClusterBuildOptions{Workers: 1, Targets: changed})
		if err != nil {
			return 0, err
		}
		if st.Rebuilt != *shards {
			return 0, fmt.Errorf("full rebuild built %d shards, want %d", st.Rebuilt, *shards)
		}
		fullC = c
		return c.Machines[0].Summary.NumSupernodes(), nil
	}
	incrFn := func(int) (int, error) {
		c, st, err := pegasus.BuildSummaryClusterIncremental(context.Background(), g, labels,
			*shards, budgetBits, icfg, pegasus.ClusterBuildOptions{Workers: 1, Targets: changed, Prev: prevC})
		if err != nil {
			return 0, err
		}
		if st.Rebuilt != 1 || st.Reused != *shards-1 {
			return 0, fmt.Errorf("incremental rebuild: rebuilt=%d reused=%d, want 1/%d", st.Rebuilt, st.Reused, *shards-1)
		}
		incrC = c
		return c.Machines[0].Summary.NumSupernodes(), nil
	}
	fullR := bench("summarize_full", *shards, 1, fullFn)
	incrR := bench("summarize_incremental", *shards, 1, incrFn)
	rep.Results = append(rep.Results, fullR, incrR)
	if incrR.NsPerOp > 0 {
		rep.SpeedupIncremental = float64(fullR.NsPerOp) / float64(incrR.NsPerOp)
	}
	// Correctness anchor: transplanted shard summaries must be bit-identical
	// to the from-scratch build of the same configuration.
	for i := 0; i < *shards; i++ {
		if !bytes.Equal(artifactBytes(incrC, i), artifactBytes(fullC, i)) {
			fatal("shard %d: incremental rebuild artifact differs from the full rebuild — reuse changed results", i)
		}
	}

	// Cold vs warm cluster start: the warm arm builds the same cluster from
	// a populated artifact cache — every shard is a disk hit decoded back
	// into memory, zero summarizations. Both arms run sequentially; warm
	// start is pure IO+decode, so the ratio holds on any host.
	dir := *cacheDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "pegasus-bench-cache-*")
		if err != nil {
			fatal("warm bench: temp cache dir: %v", err)
		}
		// fatal exits via os.Exit, which skips defers — register the
		// cleanup with it too so failed runs do not strand the temp dir.
		cleanup = func() { os.RemoveAll(tmp) }
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	astore, err := pegasus.OpenArtifactStore(dir)
	if err != nil {
		fatal("warm bench: open store: %v", err)
	}
	// Populate once (not timed): this files every shard artifact under its
	// content key, which is exactly what a serving deployment's first boot
	// (or pegasus-serve -cache-dir) leaves behind.
	if _, st, err := pegasus.BuildSummaryClusterIncremental(context.Background(), g, labels,
		*shards, budgetBits, icfg, pegasus.ClusterBuildOptions{Workers: 1, Store: astore}); err != nil {
		fatal("warm bench: populate cache: %v", err)
	} else if st.Rebuilt+st.Loaded != *shards {
		fatal("warm bench: populate satisfied %d shards, want %d", st.Rebuilt+st.Loaded, *shards)
	}
	var coldC, warmC *pegasus.Cluster
	coldFn := func(int) (int, error) {
		c, st, err := pegasus.BuildSummaryClusterIncremental(context.Background(), g, labels,
			*shards, budgetBits, icfg, pegasus.ClusterBuildOptions{Workers: 1})
		if err != nil {
			return 0, err
		}
		if st.Rebuilt != *shards {
			return 0, fmt.Errorf("cold start built %d shards, want %d", st.Rebuilt, *shards)
		}
		coldC = c
		return c.Machines[0].Summary.NumSupernodes(), nil
	}
	warmFn := func(int) (int, error) {
		c, st, err := pegasus.BuildSummaryClusterIncremental(context.Background(), g, labels,
			*shards, budgetBits, icfg, pegasus.ClusterBuildOptions{Workers: 1, Store: astore})
		if err != nil {
			return 0, err
		}
		if st.Loaded != *shards || st.Rebuilt != 0 {
			return 0, fmt.Errorf("warm start: loaded=%d rebuilt=%d, want %d/0", st.Loaded, st.Rebuilt, *shards)
		}
		warmC = c
		return c.Machines[0].Summary.NumSupernodes(), nil
	}
	coldR := bench("summarize_cold", *shards, 1, coldFn)
	warmR := bench("summarize_warm", *shards, 1, warmFn)
	rep.Results = append(rep.Results, coldR, warmR)
	if warmR.NsPerOp > 0 {
		rep.SpeedupWarm = float64(coldR.NsPerOp) / float64(warmR.NsPerOp)
	}
	// Correctness anchor: disk-loaded shard summaries must be bit-identical
	// to the cold build's.
	for i := 0; i < *shards; i++ {
		if !bytes.Equal(artifactBytes(warmC, i), artifactBytes(coldC, i)) {
			fatal("shard %d: warm-start artifact differs from the cold build — persistence changed results", i)
		}
	}

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal("marshal: %v", err)
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(*out, raw, 0o644); err != nil {
		fatal("write %s: %v", *out, err)
	}
	fmt.Printf("wrote %s (cluster speedup %.2fx, incremental rebuild %.2fx, warm start %.2fx on %d CPU(s))\n",
		*out, rep.SpeedupCluster, rep.SpeedupIncremental, rep.SpeedupWarm, rep.Host.NumCPU)

	if *minSpeed > 0 {
		if rep.Host.NumCPU < *shards {
			fmt.Fprintf(os.Stderr, "pegasus-bench: skipping -min-cluster-speedup check: %d CPU(s) < %d shards\n",
				rep.Host.NumCPU, *shards)
		} else if rep.SpeedupCluster < *minSpeed {
			fatal("cluster build speedup %.2fx below required %.2fx (%d shards, %d CPUs)",
				rep.SpeedupCluster, *minSpeed, *shards, rep.Host.NumCPU)
		}
	}
	// The incremental and warm gates hold on any host: both arms of each
	// comparison run sequentially, so no CPU-count escape hatch.
	if *minIncr > 0 && rep.SpeedupIncremental < *minIncr {
		fatal("incremental 1-of-%d-shards rebuild speedup %.3fx below required %.3fx",
			*shards, rep.SpeedupIncremental, *minIncr)
	}
	if *minWarm > 0 && rep.SpeedupWarm < *minWarm {
		fatal("warm start speedup %.3fx below required %.3fx", rep.SpeedupWarm, *minWarm)
	}
}

// artifactBytes encodes shard i's summary as the artifact codec stores it,
// the byte-identity yardstick of the correctness anchors.
func artifactBytes(c *pegasus.Cluster, i int) []byte {
	raw, err := persist.EncodeBytes(persist.Artifact{Summary: c.Machines[i].Summary})
	if err != nil {
		fatal("encode shard %d: %v", i, err)
	}
	return raw
}

// cleanup, when set, runs before a fatal exit (os.Exit skips defers).
var cleanup func()

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pegasus-bench: "+format+"\n", args...)
	if cleanup != nil {
		cleanup()
	}
	os.Exit(1)
}
