package main

import (
	"strconv"
	"strings"
	"sync"

	"pegasus"
)

// metricDef describes one reported metric. End-to-end metrics come from
// untraced runs, and their note defines them; layer metrics come from
// traced runs, and their note names the end-to-end metric, on which
// workload, they are expected to move.
type metricDef struct {
	name, unit, better string
	layer, note        string
}

// endToEnd are the metrics of an untraced run, each measured on every
// workload and bounded in BENCHMARK.json. A run's error rate is its failed
// ÷ attempted operations, carried by the result line's own fields.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", note: "median of the run's cold boots: gzip SNAP bytes in memory to the first 200 from GET /healthz"},
	{name: "query_p50_ms", unit: "ms", better: "lower", note: "open-loop latency from scheduled send to last byte, median over blocks"},
	{name: "rebuild_s", unit: "s", better: "lower", note: "median client latency of POST /v1/summarize target swaps"},
	{name: "rwr_smape", unit: "ratio", better: "lower", note: "mean SMAPE of served RWR vectors on the probe set against exact RWR"},
	{name: "rwr_spearman", unit: "ratio", better: "higher", note: "mean Spearman correlation of the same vectors"},
	{name: "personalized_error", unit: "edges", better: "lower", note: "Eq. 1 of each served shard summary under its shard's target weights, summed"},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", note: "process VmHWM at the end of the run"},
}

// unbounded are end-to-end metrics an untraced run prints and records but
// leaves out of its result line: on a 2-vCPU VM whose host stalls and
// drifts, their spread over ten runs reached 0.42–1.21 (p99) and 0.26–0.28
// (closed-loop rate) of the median, past the largest regression bound a
// result line may carry.
var unbounded = []metricDef{
	{name: "query_p99_ms", unit: "ms", better: "lower", note: "open-loop latency, median over blocks of at least 1000 answered requests"},
	{name: "query_rps_max", unit: "1/s", better: "higher", note: "median over one-second windows of closed-loop completions"},
}

// perLayer are the metrics of a traced run.
var perLayer = []metricDef{
	{"ingest.ms", "ms", "lower", "internal/ingest", "setup_s on boot (small)"},
	{"ingest.mb_per_s", "MB/s", "higher", "internal/ingest", "setup_s on boot (small)"},
	{"partition.ms", "ms", "lower", "internal/partition", "setup_s on boot; rebuild_s"},
	{"build.weights.ms", "ms", "lower", "internal/weights", "setup_s on boot; rebuild_s"},
	{"build.shingle.ms", "ms", "lower", "internal/core", "setup_s and rebuild_s on boot"},
	{"build.candidates.ms", "ms", "lower", "internal/core", "setup_s and rebuild_s on boot"},
	{"build.merge.ms", "ms", "lower", "internal/core", "setup_s and rebuild_s on boot"},
	{"build.finalize.ms", "ms", "lower", "internal/core", "setup_s and rebuild_s on boot"},
	{"core.iterations", "count", "lower", "internal/core", "setup_s; personalized_error and rwr_* only if merge decisions change"},
	{"core.groups", "count", "lower", "internal/core", "setup_s; personalized_error and rwr_* only if merge decisions change"},
	{"core.merges", "count", "lower", "internal/core", "setup_s; personalized_error and rwr_* only if merge decisions change"},
	{"core.rejections", "count", "lower", "internal/core", "setup_s; personalized_error and rwr_* only if merge decisions change"},
	{"core.merge_accept_ratio", "ratio", "higher", "internal/core", "setup_s on boot"},
	{"core.merge_us_per_merge", "us", "lower", "internal/core", "setup_s and rebuild_s on boot"},
	{"build.shard.ms_max", "ms", "lower", "internal/distributed", "setup_s on boot; rebuild_s"},
	{"build.shard.self_ms", "ms", "lower", "internal/distributed", "setup_s on boot; rebuild_s"},
	{"distributed.shard_skew", "ratio", "lower", "internal/distributed", "setup_s on boot"},
	{"rebuild.shards_rebuilt", "count", "lower", "internal/distributed", "rebuild_s"},
	{"rebuild.shards_reused", "count", "higher", "internal/distributed", "rebuild_s"},
	{"persist.puts", "count", "lower", "internal/persist", "setup_s; rebuild_s"},
	{"persist.bytes_written", "bytes", "lower", "internal/persist", "setup_s; rebuild_s"},
	{"persist.put_errors", "count", "lower", "internal/persist", "setup_s; rebuild_s"},
	{"summary.supernodes", "count", "lower", "internal/summary", "personalized_error, rwr_smape, rwr_spearman"},
	{"summary.superedges", "count", "lower", "internal/summary", "personalized_error, rwr_smape, rwr_spearman"},
	{"summary.size_over_budget", "ratio", "lower", "internal/summary", "personalized_error, rwr_smape, rwr_spearman"},
	{"session.rwr.ms", "ms", "lower", "internal/queries", "query_p50_ms and query_rps_max on serve-cold"},
	{"session.php.ms", "ms", "lower", "internal/queries", "query_p50_ms and query_rps_max on serve-cold"},
	{"session.iterations", "count", "lower", "internal/queries", "query_p50_ms and query_rps_max on serve-cold"},
	{"session.us_per_iteration", "us", "lower", "internal/queries", "query_p50_ms and query_rps_max on serve-cold"},
	{"handler.self_ms", "ms", "lower", "internal/server", "query_p50_ms and query_rps_max on serve-hot"},
	{"http.outside_handler_ms", "ms", "lower", "internal/server", "query_p50_ms and query_rps_max on serve-hot"},
	{"response.kb", "KB", "lower", "internal/server", "query_p50_ms and query_rps_max on serve-hot"},
	{"cache.hit_ratio", "ratio", "higher", "internal/server", "query_p50_ms on serve-hot"},
	{"cache.shared_ratio", "ratio", "higher", "internal/server", "query_p99_ms on serve-cold"},
	{"cache.hit_ms", "ms", "lower", "internal/server", "query_p50_ms and query_rps_max on serve-hot"},
	{"cache.entries", "count", "lower", "internal/server", "peak_rss_mb"},
	{"compute.wait_ms", "ms", "lower", "internal/server", "query_p99_ms on serve-cold"},
	{"batch.shard.ms_max", "ms", "lower", "internal/server", "query_p99_ms on serve-cold"},
	{"rebuild.span_ms", "ms", "lower", "internal/server", "rebuild_s"},
	{"gc.count", "count", "lower", "Go runtime", "query_p99_ms, peak_rss_mb"},
	{"gc.pause_ms", "ms", "lower", "Go runtime", "query_p99_ms, peak_rss_mb"},
	{"trace.dropped_spans", "count", "lower", "internal/obs", "none: a traced run with drops is incomplete"},
	{"trace.overhead_pct", "%", "lower", "internal/obs", "none: traced minus untraced query_p50_ms"},
	{"trace.setup_overhead_pct", "%", "lower", "internal/obs", "none: traced minus untraced setup_s"},
	{"loadgen.sent", "count", "higher", "load generator", "none: qualifies every query_* number"},
	{"loadgen.late_ms_p99", "ms", "lower", "load generator", "none: qualifies every query_* number"},
	{"loadgen.backlog_max", "count", "lower", "load generator", "none: qualifies every query_* number"},
	{"loadgen.warmup_s", "s", "lower", "load generator", "none: qualifies every query_* number"},
}

// layerAcc accumulates per-layer samples from the span timelines of traced
// answers. Safe for concurrent use by the load generator's workers.
type layerAcc struct {
	mu       sync.Mutex
	samples  map[string][]float64
	sessIter float64
	sessUs   float64
	dropped  int
}

func newLayerAcc() *layerAcc { return &layerAcc{samples: make(map[string][]float64)} }

// take returns the samples recorded under name.
func (a *layerAcc) take(name string) []float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.samples[name]
}

// viewSpans converts a served timeline to spans in microseconds.
func viewSpans(v *pegasus.TraceView) []span {
	out := make([]span, len(v.Spans))
	for i, s := range v.Spans {
		out[i] = span{Name: s.Name, Parent: s.Parent, Start: s.StartUs, End: s.StartUs + s.DurationUs}
	}
	return out
}

func attr(s pegasus.SpanView, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

func attrInt(s pegasus.SpanView, key string) int {
	v, _ := strconv.Atoi(attr(s, key))
	return v
}

func usMs(us int64) float64 { return float64(us) / 1000 }

// addQuery folds one traced query answer into the accumulator; clientMs is
// the round trip the client saw, from send to last byte. The timeline is
// snapshotted inside the handler, before the body is encoded and written,
// so the client time the handler span does not cover is reported as
// http.outside_handler_ms rather than lost.
func (a *layerAcc) addQuery(v *pegasus.TraceView, clientMs float64) {
	spans := viewSpans(v)
	self := selfTimes(spans)
	batchMax, batch := 0.0, false
	a.mu.Lock()
	defer a.mu.Unlock()
	add := func(name string, x float64) { a.samples[name] = append(a.samples[name], x) }
	for i, s := range v.Spans {
		d := usMs(s.DurationUs)
		switch {
		case s.Name == "handler" && s.Parent < 0:
			add("handler.self_ms", usMs(self[i]))
			add("http.outside_handler_ms", clientMs-d)
		case s.Name == "cache" && attr(s, "status") == "hit":
			add("cache.hit_ms", d)
		case strings.HasPrefix(s.Name, "compute."):
			for _, c := range v.Spans {
				if c.Parent == i && strings.HasPrefix(c.Name, "session.") {
					add("compute.wait_ms", d-usMs(c.DurationUs))
				}
			}
		case s.Name == "session.rwr" || s.Name == "session.php":
			add(s.Name+".ms", d)
			a.sessIter += float64(attrInt(s, "iterations"))
			a.sessUs += float64(s.DurationUs)
		case s.Name == "batch.shard":
			batchMax, batch = max(batchMax, d), true
		}
	}
	if batch {
		add("batch.shard.ms_max", batchMax)
	}
	a.dropped += v.DroppedSpans
}

// addRebuild folds the timeline of one traced POST /v1/summarize answer.
func (a *layerAcc) addRebuild(v *pegasus.TraceView) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, s := range v.Spans {
		if s.Name == "rebuild" {
			a.samples["rebuild.span_ms"] = append(a.samples["rebuild.span_ms"], usMs(s.DurationUs))
		}
	}
	a.dropped += v.DroppedSpans
}

// buildLayers reduces the timeline of a traced cold boot — the build.*
// spans the engine and the cluster builder emit under the context given to
// NewServer — to the build-phase metrics. Phase times are summed over both
// shards, which build concurrently.
func buildLayers(v pegasus.TraceView, out map[string]float64) {
	spans := viewSpans(&v)
	self := selfTimes(spans)
	var shardMs []float64
	for i, s := range v.Spans {
		d := usMs(s.DurationUs)
		switch s.Name {
		case "build.weights", "build.shingle", "build.candidates", "build.merge", "build.finalize":
			out[s.Name+".ms"] += d
		case "build.shard":
			shardMs = append(shardMs, d)
			out["build.shard.self_ms"] += usMs(self[i])
		}
	}
	if len(shardMs) > 0 {
		mx := 0.0
		for _, d := range shardMs {
			mx = max(mx, d)
		}
		out["build.shard.ms_max"] = mx
		out["distributed.shard_skew"] = mx / mean(shardMs)
	}
}
