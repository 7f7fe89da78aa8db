package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pegasus"
)

const (
	// openShare is the fraction of a workload's traffic time spent in the
	// open-loop phase; the closed-loop phase takes the rest.
	openShare = 0.8
	// minTailRequests is the number of answered open-loop requests
	// query_p99_ms needs: with fewer, the run fails instead of reporting a
	// thinner tail.
	minTailRequests = 1000
	// personalization is the server's default degree of personalization α.
	personalization = 1.25
)

// results counts operations and failures across a run. Safe for concurrent
// use.
type results struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	failures  []string
}

func (r *results) attempt() { r.attempted.Add(1) }

// fail records one failed operation and returns true.
func (r *results) fail(format string, args ...any) bool {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
	return true
}

// failErr records err as a failure when it is non-nil.
func (r *results) failErr(what string, err error) {
	if err != nil {
		r.fail("%s: %v", what, err)
	}
}

type runConfig struct {
	w       workload
	deploy  int64
	seed    int64
	seconds int
	traced  bool
	workdir string
}

// metricsSnap is the part of GET /metrics the benchmark reads.
type metricsSnap struct {
	Cache struct {
		Hits    uint64 `json:"hits"`
		Misses  uint64 `json:"misses"`
		Shared  uint64 `json:"shared"`
		Entries int    `json:"entries"`
	} `json:"cache"`
	Rebuild struct {
		ShardsRebuilt uint64 `json:"shards_rebuilt"`
		ShardsReused  uint64 `json:"shards_reused"`
	} `json:"rebuild"`
	Persist *struct {
		Puts         uint64 `json:"puts"`
		PutErrors    uint64 `json:"put_errors"`
		BytesWritten uint64 `json:"bytes_written"`
	} `json:"persist"`
}

// counters sums the rebuild and persist counters of GET /metrics over the
// servers of a run.
type counters struct {
	rebuilt, reused, puts, putErrors, bytesWritten uint64
}

func (c *counters) add(m metricsSnap) {
	c.rebuilt += m.Rebuild.ShardsRebuilt
	c.reused += m.Rebuild.ShardsReused
	if p := m.Persist; p != nil {
		c.puts += p.Puts
		c.putErrors += p.PutErrors
		c.bytesWritten += p.BytesWritten
	}
}

// boots runs the cold boots of a run and holds what they measured.
type boots struct {
	c      runConfig
	in     *inputs
	runDir string
	res    *results
	layers *layerAcc
	first  []byte // the first boot's shard reports, JSON

	setups      []float64 // untraced boots, s
	tracedSetup float64   // the traced boot, s (traced runs only)
	ingestMs    []float64
	ingestMBps  []float64 // decompressed SNAP bytes per second of ingest
	rebuilds    []float64 // client latency of each swap on a later boot, s
	stopped     counters  // of the later boots' servers
}

// traffic is what the traffic phases of a run recorded.
type traffic struct {
	warmup        time.Duration
	sent          int
	open, closed  []record
	closedElapsed time.Duration
	backlog       int // the largest backlog of any open-loop slice
	// Cache counters around the open loop; GC cycles and pause time within
	// the open- and closed-loop phases.
	m0, m1    metricsSnap
	gcCount   uint32
	gcPauseNs uint64
}

// run executes one workload run and returns its report, or an error when
// the run could not produce one.
func run(ctx context.Context, c runConfig) (*report, error) {
	in, err := makeInputs(c.w, c.deploy)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	rep := newReport(c, in)
	res := &results{}
	layers := newLayerAcc()
	runDir := filepath.Join(c.workdir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(runDir)

	// The yardstick is computed before anything is timed.
	ref := make([][]float64, len(in.probes))
	for i, p := range in.probes {
		ref[i] = exactRWR(in.src, p)
	}
	b := &boots{c: c, in: in, runDir: runDir, res: res, layers: layers}
	sv, _, err := b.boot(ctx, c.traced)
	if err != nil {
		return nil, err
	}
	// Stopping follows the last measurement, so a failed shutdown changes
	// nothing the run reports.
	defer func() { _ = sv.stop() }()
	tr, err := runTraffic(ctx, c, in, sv, b, res, layers)
	if err != nil {
		return nil, err
	}
	rebuilds := b.rebuilds
	if len(rebuilds) != c.w.rebuilds() {
		return nil, fmt.Errorf("%d of %d rebuilds succeeded", len(rebuilds), c.w.rebuilds())
	}

	// Output probe and quality on the final artifacts.
	g := sv.srv.Graph()
	smape, spearman := probe(sv, in, ref, res)
	var reports shardReports
	if err := sv.getJSON("/v1/summary/report", &reports); err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	perr, err := personalizedError(sv, in, g, reports)
	if err != nil {
		return nil, fmt.Errorf("personalized error: %w", err)
	}
	res.attempt()

	openLat, tracedLat, plainLat, late := latencies(tr.open)
	rep.addTiming("setup_s", b.setups)
	rep.addTiming("query_ms", openLat)
	for k := range numOpKinds {
		var lat []float64
		for _, r := range tr.open {
			if !r.failed && r.kind == k {
				lat = append(lat, durMs(r.end-r.sched))
			}
		}
		rep.addTiming("query_ms."+opNames[k], lat)
	}
	rates := windowRates(tr.closed, tr.closedElapsed)
	rep.addTiming("closed_rps", rates)
	rep.addTiming("rebuild_s", rebuilds)
	rep.addTiming("loadgen.late_ms", late)

	if !c.traced {
		if len(openLat) < minTailRequests {
			return nil, fmt.Errorf("only %d answered open-loop requests; query_p99_ms needs %d", len(openLat), minTailRequests)
		}
		rep.setMetric("setup_s", median(b.setups))
		rep.setMetric("query_p50_ms", blockPercentile(openLat, 50))
		rep.setMetric("query_p99_ms", blockPercentile(openLat, 99))
		rep.setMetric("query_rps_max", median(rates))
		rep.setMetric("rebuild_s", median(rebuilds))
		rep.setMetric("rwr_smape", smape)
		rep.setMetric("rwr_spearman", spearman)
		rep.setMetric("personalized_error", perr)
		rep.setMetric("peak_rss_mb", peakRSSMiB())
		rep.finish(res)
		return rep, nil
	}

	lm, err := layerMetrics(ctx, sv, in, reports, b, tr, layers, res)
	if err != nil {
		return nil, err
	}
	lm["loadgen.late_ms_p99"] = percentileOf(late, 99)
	lm["trace.overhead_pct"] = 100 * (percentileOf(tracedLat, 50)/percentileOf(plainLat, 50) - 1)
	for _, name := range spanMetrics {
		rep.addTiming(name, layers.take(name))
	}
	for _, d := range perLayer {
		if v, ok := lm[d.name]; ok {
			rep.setMetric(d.name, v)
		}
	}
	rep.finish(res)
	return rep, nil
}

// boot runs one cold boot — traced when traced is set — and checks that
// it ingested the source graph and built the same shard summaries as the
// run's first boot. It returns the server and its generation.
func (b *boots) boot(ctx context.Context, traced bool) (*served, uint64, error) {
	i := len(b.ingestMs)
	b.res.attempt()
	sv, err := boot(ctx, b.in, filepath.Join(b.runDir, "boot"+strconv.Itoa(i)), traced)
	if err != nil {
		return nil, 0, fmt.Errorf("boot %d: %w", i, err)
	}
	if fp := pegasus.GraphFingerprint(sv.srv.Graph()); fp != b.in.fingerprint {
		b.res.fail("boot %d: ingested fingerprint %s differs from the source's %s", i, fp, b.in.fingerprint)
	}
	var r shardReports
	if err := sv.getJSON("/v1/summary/report", &r); err != nil {
		b.res.failErr("report", err)
	}
	raw, _ := json.Marshal(r.Shards)
	if b.first == nil {
		b.first = raw
	} else if !bytes.Equal(raw, b.first) {
		b.res.fail("boot %d built different shard summaries than boot 0", i)
	}
	if traced {
		b.tracedSetup = sv.setup.Seconds()
	} else {
		b.setups = append(b.setups, sv.setup.Seconds())
	}
	b.ingestMs = append(b.ingestMs, durMs(sv.ingest))
	b.ingestMBps = append(b.ingestMBps, float64(sv.rawBytes)/1e6/sv.ingest.Seconds())
	return sv, r.Generation, nil
}

// later runs one of the boots that follow the serving server's: an
// untraced cold boot, then swapsPerBoot target swaps on the new server —
// to swapB and back, alternating — after which it stops. It collects
// garbage before the boot and after the stop, so every boot starts from the
// same heap — the serving server's live data — and the next read phase
// does not pay for this one's garbage.
func (b *boots) later(ctx context.Context) error {
	runtime.GC()
	defer runtime.GC()
	sv, gen, err := b.boot(ctx, false)
	if err != nil {
		return err
	}
	for i := range swapsPerBoot {
		targets := b.in.swapB
		if i%2 == 1 {
			targets = b.in.targets
		}
		d, g := rebuildOnce(sv, targets, b.c.traced, gen, b.res, b.layers)
		if d > 0 {
			b.rebuilds = append(b.rebuilds, d.Seconds())
			gen = g
		}
	}
	var m metricsSnap
	b.res.failErr("metrics", sv.getJSON("/metrics", &m))
	b.stopped.add(m)
	if err := sv.stop(); err != nil {
		return fmt.Errorf("stop boot %d: %w", len(b.ingestMs)-1, err)
	}
	return nil
}

// runTraffic runs the warm-up, the open loop and the closed loop on the
// serving server sv. The open loop is cut into w.setups-1 slices, and each
// slice is followed by one of the workload's later boots (with its swaps),
// so that boots, swaps and reads are spread alike over the whole run and a
// slow spell of the host reaches each of their metrics in the same share.
func runTraffic(ctx context.Context, c runConfig, in *inputs, sv *served, b *boots, res *results, layers *layerAcc) (traffic, error) {
	w := c.w
	n := sv.srv.Graph().NumNodes()
	lg := newLoadgen(sv.base, n, c.traced, res, layers)
	defer lg.close()
	var tr traffic

	// Warm-up: every (node ∈ T, kind) key once, all answers checked. On
	// serve-hot these are the only computations, so a traced run traces them
	// all: they are where its session and pool-wait numbers come from.
	var warm []op
	for _, t := range in.targets {
		for _, k := range []opKind{opTopkRWR, opTopkPHP, opHop, opRWR} {
			warm = append(warm, op{kind: k, check: true, nodes: [batchSize]uint32{uint32(t)}})
		}
	}
	t0 := time.Now()
	countAttempts(res, lg.openLoop(ctx, warm, 1))
	tr.warmup = time.Since(t0)

	res.failErr("metrics", sv.getJSON("/metrics", &tr.m0))

	trafficDur := time.Duration(float64(c.seconds) * w.traffic * float64(time.Second))
	openDur := time.Duration(float64(trafficDur) * openShare)
	pool := make([]uint32, len(in.targets))
	for i, t := range in.targets {
		pool[i] = uint32(t)
	}
	stream := newOpStream(subSeed(c.seed, "open"), w.hot, pool, n)
	total := int(w.rate * openDur.Seconds())
	nSlices := w.setups - 1
	for k := range nSlices {
		// Each slice is a Poisson schedule of its own share of the ops, drawn
		// in turn from the one seeded stream.
		ops := schedule(stream, w.rate, (k+1)*total/nSlices-k*total/nSlices)
		tr.sent += len(ops)
		recs := gcDuring(&tr, func() []record { return lg.openLoop(ctx, ops, 2) })
		countAttempts(res, recs)
		tr.open = append(tr.open, recs...)
		tr.backlog = max(tr.backlog, backlogMax(recs))
		if err := ctx.Err(); err != nil {
			return tr, err
		}
		if err := b.later(ctx); err != nil {
			return tr, err
		}
	}
	res.failErr("metrics", sv.getJSON("/metrics", &tr.m1))

	streams := make([]*opStream, conns)
	for i := range streams {
		streams[i] = newOpStream(subSeed(c.seed, "closed"+strconv.Itoa(i)), w.hot, pool, n)
	}
	tr.closed = gcDuring(&tr, func() []record {
		var recs []record
		recs, tr.closedElapsed = lg.closedLoop(ctx, streams, trafficDur-openDur)
		return recs
	})
	countAttempts(res, tr.closed)
	return tr, ctx.Err()
}

// gcDuring runs phase and adds the GC cycles and pause time it saw to tr.
func gcDuring(tr *traffic, phase func() []record) []record {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	recs := phase()
	runtime.ReadMemStats(&after)
	tr.gcCount += after.NumGC - before.NumGC
	tr.gcPauseNs += after.PauseTotalNs - before.PauseTotalNs
	return recs
}

// spanMetrics are the per-layer metrics averaged over the span timelines
// of traced answers. Means, not medians: they add up across layers.
var spanMetrics = []string{"handler.self_ms", "http.outside_handler_ms", "cache.hit_ms",
	"compute.wait_ms", "session.rwr.ms", "session.php.ms", "batch.shard.ms_max", "rebuild.span_ms"}

// layerMetrics computes the per-layer metrics of a traced run. A metric
// left out of the map was not measured, which fails the run.
func layerMetrics(ctx context.Context, sv *served, in *inputs, reports shardReports, b *boots, tr traffic, layers *layerAcc, res *results) (map[string]float64, error) {
	g := sv.srv.Graph()
	lm := map[string]float64{}
	if err := tracedLayers(ctx, sv, in, g, reports, lm, res); err != nil {
		return nil, err
	}
	lm["ingest.ms"] = median(b.ingestMs)
	lm["ingest.mb_per_s"] = median(b.ingestMBps)
	var partitionMs []float64
	for range b.setups {
		t0 := time.Now()
		if _, err := pegasus.PartitionGraph(g, shards, pegasus.PartitionRandom, in.serverSeed); err != nil {
			return nil, err
		}
		partitionMs = append(partitionMs, durMs(time.Since(t0)))
	}
	lm["partition.ms"] = median(partitionMs)

	var final metricsSnap
	res.failErr("metrics", sv.getJSON("/metrics", &final))
	all := b.stopped
	all.add(final)
	lm["rebuild.shards_rebuilt"] = float64(all.rebuilt)
	lm["rebuild.shards_reused"] = float64(all.reused)
	if final.Persist != nil {
		lm["persist.puts"] = float64(all.puts)
		lm["persist.put_errors"] = float64(all.putErrors)
		lm["persist.bytes_written"] = float64(all.bytesWritten)
	}
	lm["cache.entries"] = float64(final.Cache.Entries)
	budget := 0.5 * g.SizeBits()
	for _, r := range reports.Shards {
		lm["summary.supernodes"] += float64(r.Supernodes)
		lm["summary.superedges"] += float64(r.Superedges)
		lm["summary.size_over_budget"] = max(lm["summary.size_over_budget"], r.SizeBits/budget)
	}

	for _, name := range spanMetrics {
		if s := layers.take(name); len(s) > 0 {
			lm[name] = mean(s)
		}
	}
	if n := len(layers.take("session.rwr.ms")) + len(layers.take("session.php.ms")); n > 0 && layers.sessIter > 0 {
		lm["session.iterations"] = layers.sessIter / float64(n)
		lm["session.us_per_iteration"] = layers.sessUs / layers.sessIter
	}
	if len(tr.open) > 0 {
		total := 0.0
		for _, r := range tr.open {
			total += float64(r.bytes)
		}
		lm["response.kb"] = total / float64(len(tr.open)) / 1000
	}
	hits := float64(tr.m1.Cache.Hits - tr.m0.Cache.Hits)
	shared := float64(tr.m1.Cache.Shared - tr.m0.Cache.Shared)
	if lookups := hits + shared + float64(tr.m1.Cache.Misses-tr.m0.Cache.Misses); lookups > 0 {
		lm["cache.hit_ratio"] = hits / lookups
		lm["cache.shared_ratio"] = shared / lookups
	}

	lm["gc.count"] = float64(tr.gcCount)
	lm["gc.pause_ms"] = float64(tr.gcPauseNs) / 1e6
	lm["trace.dropped_spans"] = float64(layers.dropped + sv.build.View().DroppedSpans)
	if lm["trace.dropped_spans"] > 0 {
		res.fail("traced run incomplete: %v spans dropped past the per-trace cap", lm["trace.dropped_spans"])
	}
	lm["trace.setup_overhead_pct"] = 100 * (b.tracedSetup/median(b.setups) - 1)
	lm["loadgen.sent"] = float64(tr.sent)
	lm["loadgen.backlog_max"] = float64(tr.backlog)
	lm["loadgen.warmup_s"] = tr.warmup.Seconds()
	return lm, nil
}

// rebuildOnce posts one target swap and checks its outcome: one shard
// rebuilt, one reused, a new generation. It returns the client latency (0
// on failure) and the new generation.
func rebuildOnce(sv *served, targets []pegasus.NodeID, traced bool, prevGen uint64, res *results, layers *layerAcc) (time.Duration, uint64) {
	body, _ := json.Marshal(map[string][]pegasus.NodeID{"targets": targets})
	path := "/v1/summarize"
	if traced {
		path += "?debug=1"
	}
	res.attempt()
	t0 := time.Now()
	status, raw, err := sv.post(path, body)
	d := time.Since(t0)
	if err != nil || status != 200 {
		res.fail("rebuild: status %d err %v: %.200s", status, err, raw)
		return 0, prevGen
	}
	var a struct {
		Generation uint64             `json:"generation"`
		Rebuilt    int                `json:"rebuilt"`
		Reused     int                `json:"reused"`
		Trace      *pegasus.TraceView `json:"trace"`
	}
	if err := json.Unmarshal(raw, &a); err != nil {
		res.fail("rebuild: undecodable answer: %v", err)
		return 0, prevGen
	}
	if a.Rebuilt != 1 || a.Reused != 1 || a.Generation <= prevGen {
		res.fail("rebuild: rebuilt %d reused %d generation %d after %d; want 1, 1 and a new generation",
			a.Rebuilt, a.Reused, a.Generation, prevGen)
		return 0, prevGen
	}
	if a.Trace != nil {
		layers.addRebuild(a.Trace)
	}
	return d, a.Generation
}

// probe runs the output probe after timing: for each probe node the full
// RWR vector is scored against the exact reference, and the single, cached
// and batch top-k answers must be byte-identical and agree with the vector.
// It returns the mean SMAPE and Spearman over the probe set.
func probe(sv *served, in *inputs, ref [][]float64, res *results) (float64, float64) {
	n := len(ref[0])
	var smapes, rhos []float64
	for i, p := range in.probes {
		node := []byte(`{"node":` + strconv.Itoa(int(p)) + `}`)
		var vec, top1, top2 queryAnswer
		var batch batchAnswer
		ok := probeCall(sv, "/v1/query/rwr", node, &vec, res) &&
			probeCall(sv, "/v1/query/topk", node, &top1, res) &&
			probeCall(sv, "/v1/query/topk", node, &top2, res) &&
			probeCall(sv, "/v1/query/batch", []byte(`{"kind":"topk","nodes":[`+strconv.Itoa(int(p))+`]}`), &batch, res)
		if !ok {
			continue
		}
		res.attempt()
		if msg := checkVector(vec.Scores, n); msg != "" {
			res.fail("probe %d: %s", p, msg)
			continue
		}
		top, msg := checkTop(top1.Top, n)
		switch {
		case msg != "":
			res.fail("probe %d: %s", p, msg)
			continue
		case !top2.Cached:
			res.fail("probe %d: repeated top-k answer not served from the cache", p)
		case !bytes.Equal(top1.Top, top2.Top):
			res.fail("probe %d: cached top-k answer differs from the first", p)
		case len(batch.Items) != 1 || batch.Items[0].Error != "" || !bytes.Equal(batch.Items[0].Top, top1.Top):
			res.fail("probe %d: batch top-k answer differs from the single answer", p)
		}
		for _, e := range top {
			if e.Score != vec.Scores[e.Node] {
				res.fail("probe %d: top-k score of node %d is %v, the vector's entry %v", p, e.Node, e.Score, vec.Scores[e.Node])
				break
			}
		}
		s, err1 := pegasus.SMAPE(ref[i], vec.Scores)
		r, err2 := pegasus.Spearman(ref[i], vec.Scores)
		if err1 != nil || err2 != nil {
			res.fail("probe %d: scoring: %v %v", p, err1, err2)
			continue
		}
		smapes = append(smapes, s)
		rhos = append(rhos, r)
	}
	return mean(smapes), mean(rhos)
}

func probeCall(sv *served, path string, body []byte, v any, res *results) bool {
	res.attempt()
	status, raw, err := sv.post(path, body)
	if err != nil || status != 200 {
		res.fail("probe %s: status %d err %v: %.200s", path, status, err, raw)
		return false
	}
	if err := json.Unmarshal(raw, v); err != nil {
		res.fail("probe %s: undecodable answer: %v", path, err)
		return false
	}
	return true
}

// personalizedError evaluates Eq. 1 for each served shard summary — read
// back from the artifacts the server filed — under its shard's target
// weights (part ∩ T, or the whole part when no target falls in it), summed
// over shards.
func personalizedError(sv *served, in *inputs, g *pegasus.Graph, reports shardReports) (float64, error) {
	sums, err := sv.artifacts(reports)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for i, s := range sums {
		w, err := pegasus.NewWeights(g, shardTargets(in, i), personalization)
		if err != nil {
			return 0, err
		}
		total += pegasus.PersonalizedError(g, s, w)
	}
	return total, nil
}

// shardTargets is shard i's resolved target set under the boot targets.
func shardTargets(in *inputs, i int) []pegasus.NodeID {
	var part, mine []pegasus.NodeID
	for u, l := range in.labels {
		if int(l) == i {
			part = append(part, pegasus.NodeID(u))
		}
	}
	for _, t := range in.targets {
		if int(in.labels[t]) == i {
			mine = append(mine, t)
		}
	}
	if len(mine) == 0 {
		return part
	}
	return mine
}

// tracedLayers fills the build-phase and engine metrics: phase times from
// the traced boot's timeline, and merge and rejection counts from a library
// build of the same configuration with Config.Trace set (Trace is not part
// of the content key, so that build yields the served artifacts, which is
// checked).
func tracedLayers(ctx context.Context, sv *served, in *inputs, g *pegasus.Graph, reports shardReports, lm map[string]float64, res *results) error {
	buildLayers(sv.build.View(), lm)
	var mu sync.Mutex
	var iters, groups, merges, rejections int
	cfg := pegasus.Config{Seed: in.serverSeed, Trace: func(s pegasus.IterStats) {
		mu.Lock()
		iters++
		groups += s.Groups
		merges += s.Merges
		rejections += s.Rejections
		mu.Unlock()
	}}
	c, _, err := pegasus.BuildSummaryClusterIncremental(ctx, g, in.labels, shards, 0.5*g.SizeBits(), cfg,
		pegasus.ClusterBuildOptions{Targets: in.targets})
	if err != nil {
		return fmt.Errorf("library build: %w", err)
	}
	res.attempt()
	for i, m := range c.Machines {
		if m.Summary == nil || m.Summary.Describe() != reports.Shards[i] {
			res.fail("library build of the served configuration differs from served shard %d", i)
		}
	}
	lm["core.iterations"] = float64(iters)
	lm["core.groups"] = float64(groups)
	lm["core.merges"] = float64(merges)
	lm["core.rejections"] = float64(rejections)
	if merges+rejections > 0 {
		lm["core.merge_accept_ratio"] = float64(merges) / float64(merges+rejections)
	}
	if merges > 0 {
		lm["core.merge_us_per_merge"] = lm["build.merge.ms"] * 1000 / float64(merges)
	}
	return nil
}

// countAttempts counts a phase's requests as attempted operations; their
// failures were recorded as they happened.
func countAttempts(res *results, recs []record) {
	for range recs {
		res.attempt()
	}
}

// latencies splits the open-loop records of answered requests: all
// latencies from the scheduled send, the traced and untraced ones from the
// actual send, and how late each send left.
func latencies(recs []record) (all, traced, plain, late []float64) {
	for _, r := range recs {
		if r.failed {
			continue
		}
		all = append(all, durMs(r.end-r.sched))
		late = append(late, durMs(r.start-r.sched))
		if r.traced {
			traced = append(traced, durMs(r.end-r.start))
		} else {
			plain = append(plain, durMs(r.end-r.start))
		}
	}
	return
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}
