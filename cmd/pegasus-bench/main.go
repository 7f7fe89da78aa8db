// Command pegasus-bench tracks the perf trajectory of the repo's hot paths
// across PRs. It times (a) sequential vs concurrent shard builds of a
// 4-shard Alg. 3 cluster, (b) incremental vs full cluster rebuilds after a
// 1-of-m-shards targets change, the content-key reuse behind hot
// POST /v1/summarize reconfiguration, (c) cold vs warm cluster
// starts, where the warm arm decodes every shard artifact from a populated
// disk store (the cache dir behind pegasus-serve -cache-dir) instead of
// summarizing, and (d) a scale section: the full real-graph serving path —
// gzip SNAP ingest, sharded cluster build, routed RWR queries — at 10^4 and
// 10^5 nodes (10^6 with -scale-large), which doubles as the CI enforcement
// of the ingester's worker-count bit-identity contract. Results go to a JSON
// file (BENCH_summarize.json by convention, committed at the repo root and
// regenerated by CI).
//
// Usage:
//
//	pegasus-bench -out BENCH_summarize.json
//	pegasus-bench -nodes 5000 -shards 8 -runs 5 -workers 8
//	pegasus-bench -min-incremental-speedup 2.0 -min-warm-speedup 3.0
//	pegasus-bench -scale-large -scale-shards 32   # add the 10^6-node arm
package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"pegasus"
	"pegasus/internal/datasets"
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
	// Scale holds the real-graph-scale rows (10^4 and 10^5 nodes by default,
	// 10^6 with -scale-large): end-to-end ingest/build/query timings on the
	// deterministic scale-tier datasets.
	Scale []ScaleResult `json:"scale,omitempty"`
}

// ScaleResult is one row of the scale section: the full real-graph serving
// path (SNAP-gzip ingest → sharded cluster build → routed RWR queries) at
// one node scale, with the memory footprint it left behind. IngestMs uses
// all cores, IngestSeqMs one; the two runs must produce fingerprint-equal
// graphs or the benchmark aborts — this is the CI enforcement of the
// ingester's worker-count bit-identity contract.
type ScaleResult struct {
	Name        string  `json:"name"`
	Nodes       int     `json:"nodes"`
	Edges       int64   `json:"edges"`
	Shards      int     `json:"shards"`
	SnapGzBytes int     `json:"snap_gz_bytes"`
	IngestMs    float64 `json:"ingest_ms"`
	IngestSeqMs float64 `json:"ingest_seq_ms"`
	BuildMs     float64 `json:"build_ms"`
	Queries     int     `json:"queries"`
	QPS         float64 `json:"qps"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
	HeapBytes   uint64  `json:"heap_bytes"` // live heap after the arm (post-GC)
	SysBytes    uint64  `json:"sys_bytes"`  // total memory obtained from the OS
	RSSBytes    int64   `json:"rss_bytes"`  // resident set via /proc (0 where unsupported)
	Fingerprint string  `json:"graph_fingerprint"`
}

func main() {
	var (
		out         = flag.String("out", "BENCH_summarize.json", "output JSON file")
		nodes       = flag.Int("nodes", 2000, "benchmark graph node count")
		comms       = flag.Int("communities", 4, "benchmark graph community count")
		shards      = flag.Int("shards", 4, "cluster benchmark shard count")
		runs        = flag.Int("runs", 3, "timed repetitions per configuration")
		workers     = flag.Int("workers", 0, "concurrent shard builds of the parallel cluster arm, benchmarked against one at a time (0 = GOMAXPROCS, floored at the shard count)")
		budget      = flag.Float64("budget", 0.4, "summary budget as a fraction of Size(G)")
		seed        = flag.Int64("seed", 1, "graph/partition/summarization seed")
		minSpeed    = flag.Float64("min-cluster-speedup", 0, "fail unless the cluster build speedup reaches this factor; only enforced when the host has at least `shards` CPUs (0 disables)")
		minIncr     = flag.Float64("min-incremental-speedup", 0, "fail unless an incremental 1-of-shards rebuild beats the full rebuild by this factor (0 disables; core-count independent)")
		minWarm     = flag.Float64("min-warm-speedup", 0, "fail unless a warm start from a populated artifact cache beats the cold build by this factor (0 disables; core-count independent)")
		cacheDir    = flag.String("cache-dir", "", "artifact cache directory for the warm-start arms (empty uses a temp dir; pass a path to keep/upload the populated cache)")
		scaleOn     = flag.Bool("scale", true, "run the real-graph-scale section: SNAP ingest + sharded build + routed queries at 10^4 and 10^5 nodes")
		scaleLarge  = flag.Bool("scale-large", false, "add the 10^6-node arm to the scale section (off by default so the committed report stays cheap to regenerate)")
		scaleShards = flag.Int("scale-shards", 2, "cluster shard count for the scale section. Alg. 3 summarizes the whole graph once per shard, so total build work grows with the shard count — the arms only get cheaper with shards when cores are plentiful")
		scaleQ      = flag.Int("scale-queries", 100, "routed RWR queries per scale arm (QPS/p50/p99 sample size)")
		scaleBudget = flag.Float64("scale-budget", 0.7, "summary budget fraction for the scale arms (milder than the main -budget: merge depth dominates build time at 10^5+ nodes)")
	)
	flag.Parse()

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

	// Scale section: the paper's scalability story (§V-E, Fig. 12 is linear
	// in |E|) replayed end to end on the offline fallback tier. Each arm
	// round-trips the graph through the gzip SNAP interchange so the timings
	// cover exactly the path a real downloaded snapshot takes.
	if *scaleOn {
		arms := []struct {
			name  string
			code  string
			scale float64
		}{
			{"scale_10k", "S5", 0.1},
			{"scale_100k", "S5", 1},
		}
		if *scaleLarge {
			arms = append(arms, struct {
				name  string
				code  string
				scale float64
			}{"scale_1m", "S6", 1})
		}
		for _, a := range arms {
			rep.Scale = append(rep.Scale, runScaleArm(a.name, a.code, a.scale, *scaleShards, *scaleQ, *scaleBudget, *seed))
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

// runScaleArm measures one scale row end to end: generate the scale-tier
// graph, round-trip it through gzip SNAP, ingest (all cores, then one),
// enforce fingerprint equality across the two, build a sharded cluster from
// the ingested copy, and answer routed RWR queries. One run per stage — at
// 10^5+ nodes a stage is seconds long, far above timer noise.
func runScaleArm(name, code string, scale float64, shards, queries int, budget float64, seed int64) ScaleResult {
	if queries < 1 {
		fatal("-scale-queries must be >= 1, got %d", queries)
	}
	fmt.Fprintf(os.Stderr, "benchmarking %-24s (shards=%d, %d queries)...\n", name, shards, queries)
	d, err := datasets.ByShort(code)
	if err != nil {
		fatal("%s: %v", name, err)
	}
	// Generate (not Load): the dataset cache would pin the 10^6-node graph
	// in memory past the arm and poison the RSS measurement.
	src := d.Generate(scale)
	wantFP := pegasus.GraphFingerprint(src)

	var enc bytes.Buffer
	zw := gzip.NewWriter(&enc)
	if err := pegasus.WriteSNAP(zw, src); err != nil {
		fatal("%s: encode SNAP: %v", name, err)
	}
	if err := zw.Close(); err != nil {
		fatal("%s: gzip close: %v", name, err)
	}
	src = nil // everything below runs on the ingested copy

	r := ScaleResult{Name: name, Shards: shards, Queries: queries,
		SnapGzBytes: enc.Len(), Fingerprint: wantFP}

	start := time.Now()
	res, err := pegasus.IngestEdgeListBytes(enc.Bytes(), pegasus.IngestOptions{})
	if err != nil {
		fatal("%s: ingest: %v", name, err)
	}
	r.IngestMs = durMs(time.Since(start))

	start = time.Now()
	seq, err := pegasus.IngestEdgeListBytes(enc.Bytes(), pegasus.IngestOptions{Workers: 1})
	if err != nil {
		fatal("%s: sequential ingest: %v", name, err)
	}
	r.IngestSeqMs = durMs(time.Since(start))
	enc = bytes.Buffer{}

	// The two determinism gates CI enforces on every run: the ingested graph
	// must reproduce the source exactly (SNAP round-trip), and the parallel
	// and sequential ingests must agree bit for bit.
	if fp := pegasus.GraphFingerprint(res.Graph); fp != wantFP {
		fatal("%s: ingested fingerprint %s != source %s — SNAP round-trip broken", name, fp, wantFP)
	}
	if fp := pegasus.GraphFingerprint(seq.Graph); fp != wantFP || seq.Stats != res.Stats {
		fatal("%s: parallel and sequential ingests disagree — worker-count bit-identity broken", name)
	}
	seq = nil

	g := res.Graph
	r.Nodes = g.NumNodes()
	r.Edges = g.NumEdges()

	labels, err := pegasus.PartitionGraph(g, shards, pegasus.PartitionRandom, seed)
	if err != nil {
		fatal("%s: partition: %v", name, err)
	}
	budgetBits := budget * g.SizeBits()
	start = time.Now()
	c, err := pegasus.BuildSummaryClusterCtx(context.Background(), g, labels, shards, budgetBits,
		pegasus.Config{Seed: seed}, runtime.GOMAXPROCS(0))
	if err != nil {
		fatal("%s: cluster build: %v", name, err)
	}
	r.BuildMs = durMs(time.Since(start))

	// Routed queries with a fixed iteration count: deterministic per-query
	// work, so QPS/p50/p99 measure the serving path, not convergence
	// variance.
	qcfg := pegasus.RWRConfig{Eps: 1e-300, MaxIter: 6}
	lat := make([]time.Duration, queries)
	qstart := time.Now()
	for i := range lat {
		q := pegasus.NodeID((i * 9973) % g.NumNodes())
		t0 := time.Now()
		if _, err := c.RWR(q, qcfg); err != nil {
			fatal("%s: query %d: %v", name, i, err)
		}
		lat[i] = time.Since(t0)
	}
	r.QPS = float64(queries) / time.Since(qstart).Seconds()
	slices.Sort(lat)
	r.P50Ms = durMs(lat[queries/2])
	r.P99Ms = durMs(lat[queries*99/100])

	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.HeapBytes = mem.HeapAlloc
	r.SysBytes = mem.Sys
	r.RSSBytes = rssBytes()
	fmt.Fprintf(os.Stderr, "  %s: |V|=%d |E|=%d ingest %.0fms (seq %.0fms) build %.0fms qps %.0f p99 %.2fms rss %dMiB\n",
		name, r.Nodes, r.Edges, r.IngestMs, r.IngestSeqMs, r.BuildMs, r.QPS, r.P99Ms, r.RSSBytes>>20)
	return r
}

func durMs(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// artifactBytes encodes shard i's summary as the artifact codec stores it,
// the byte-identity yardstick of the correctness anchors.
func artifactBytes(c *pegasus.Cluster, i int) []byte {
	raw, err := persist.EncodeBytes(persist.Artifact{Summary: c.Machines[i].Summary})
	if err != nil {
		fatal("encode shard %d: %v", i, err)
	}
	return raw
}

// rssBytes reads the resident set size from /proc/self/statm; 0 where /proc
// is unavailable (the field is informational, never gated on).
func rssBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
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
