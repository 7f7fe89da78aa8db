package server

import (
	"io"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"pegasus/internal/obs"
)

// latencyLes are the histogram upper bounds of the Prometheus exposition,
// in seconds. Bucket b of the internal histogram counts latencies in
// [2^(b-1), 2^b) microseconds, so every observation in buckets 0..b is below
// 2^b µs — the cumulative bucket semantics Prometheus requires fall out of
// the existing bucketing with upper bound le = 2^b / 1e6 seconds.
var latencyLes = func() []float64 {
	les := make([]float64, histBuckets)
	for b := range les {
		les[b] = float64(uint64(1)<<uint(b)) / 1e6
	}
	return les
}()

// cumulate turns per-bucket atomic counts into the cumulative counts the
// exposition format wants, returning them plus the total.
func cumulate(hist *[histBuckets]atomic.Uint64) ([]uint64, uint64) {
	cum := make([]uint64, histBuckets)
	total := uint64(0)
	for b := 0; b < histBuckets; b++ {
		total += hist[b].Load()
		cum[b] = total
	}
	return cum, total
}

// WriteProm renders the telemetry in the Prometheus text exposition format
// (version 0.0.4). It reads the same atomics the JSON snapshot reads — the
// two views never disagree about what was counted — plus the per-endpoint
// latency histograms the JSON shape has no room for. The auxiliary gauges
// (cacheEntries, cacheBytes, inFlight, generation, persist) come from the
// server for the same reason they do in SnapshotNow.
func (m *Metrics) WriteProm(w io.Writer, cacheEntries int, cacheBytes int64, inFlight int, generation uint64, persist *PersistMetrics) error {
	t := obs.NewTextWriter(w)

	t.Family("pegasus_requests_total", "counter", "HTTP requests served.")
	t.Sample("pegasus_requests_total", nil, float64(m.requests.Load()))
	t.Family("pegasus_request_errors_total", "counter", "HTTP requests answered with status >= 400.")
	t.Sample("pegasus_request_errors_total", nil, float64(m.errors.Load()))

	t.Family("pegasus_request_duration_seconds", "histogram", "Request latency across all endpoints.")
	cum, total := cumulate(&m.latency)
	t.Histogram("pegasus_request_duration_seconds", nil, latencyLes, cum, float64(m.latSum.Load())/1e6, total)

	// Per-endpoint families, endpoints in sorted order so scrapes are stable.
	m.mu.Lock()
	names := make([]string, 0, len(m.endpoints))
	for name := range m.endpoints {
		names = append(names, name)
	}
	eps := make([]*endpointStats, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		eps = append(eps, m.endpoints[name])
	}
	m.mu.Unlock()
	t.Family("pegasus_endpoint_requests_total", "counter", "Requests served per endpoint.")
	for i, name := range names {
		t.Sample("pegasus_endpoint_requests_total", []obs.Label{{Name: "endpoint", Value: name}}, float64(eps[i].count.Load()))
	}
	t.Family("pegasus_endpoint_errors_total", "counter", "Error responses (status >= 400) per endpoint.")
	for i, name := range names {
		t.Sample("pegasus_endpoint_errors_total", []obs.Label{{Name: "endpoint", Value: name}}, float64(eps[i].errors.Load()))
	}
	t.Family("pegasus_endpoint_duration_seconds", "histogram", "Request latency per endpoint.")
	for i, name := range names {
		cum, total := cumulate(&eps[i].hist)
		t.Histogram("pegasus_endpoint_duration_seconds", []obs.Label{{Name: "endpoint", Value: name}},
			latencyLes, cum, float64(eps[i].sumUs.Load())/1e6, total)
	}

	t.Family("pegasus_cache_lookups_total", "counter", "Query cache lookups by outcome (shared = singleflight-deduplicated).")
	t.Sample("pegasus_cache_lookups_total", []obs.Label{{Name: "result", Value: "hit"}}, float64(m.cacheHits.Load()))
	t.Sample("pegasus_cache_lookups_total", []obs.Label{{Name: "result", Value: "miss"}}, float64(m.cacheMisses.Load()))
	t.Sample("pegasus_cache_lookups_total", []obs.Label{{Name: "result", Value: "shared"}}, float64(m.cacheShared.Load()))
	t.Family("pegasus_cache_entries", "gauge", "Query cache entries currently stored.")
	t.Sample("pegasus_cache_entries", nil, float64(cacheEntries))
	t.Family("pegasus_cache_bytes", "gauge", "Query cache bytes currently stored: keys plus score, distance and ranked-answer payloads.")
	t.Sample("pegasus_cache_bytes", nil, float64(cacheBytes))

	t.Family("pegasus_batch_requests_total", "counter", "Batch query requests served.")
	t.Sample("pegasus_batch_requests_total", nil, float64(m.batches.Load()))
	t.Family("pegasus_batch_items_total", "counter", "Query nodes carried by batch requests.")
	t.Sample("pegasus_batch_items_total", nil, float64(m.batchItems.Load()))
	t.Family("pegasus_batch_shard_groups_total", "counter", "Per-shard groups batches fanned out to.")
	t.Sample("pegasus_batch_shard_groups_total", nil, float64(m.batchGroups.Load()))

	t.Family("pegasus_rebuilds_total", "counter", "Successful POST /v1/summarize rebuilds.")
	t.Sample("pegasus_rebuilds_total", nil, float64(m.rebuilds.Load()))
	t.Family("pegasus_rebuild_shards_total", "counter", "Shard outcomes across rebuilds (rebuilt from scratch, transplanted, or decoded from disk).")
	t.Sample("pegasus_rebuild_shards_total", []obs.Label{{Name: "outcome", Value: "rebuilt"}}, float64(m.shardsRebuilt.Load()))
	t.Sample("pegasus_rebuild_shards_total", []obs.Label{{Name: "outcome", Value: "reused"}}, float64(m.shardsReused.Load()))
	t.Sample("pegasus_rebuild_shards_total", []obs.Label{{Name: "outcome", Value: "loaded"}}, float64(m.shardsLoaded.Load()))

	t.Family("pegasus_shard_queries_total", "counter", "Queries routed per shard.")
	for i := range m.shards {
		t.Sample("pegasus_shard_queries_total", []obs.Label{{Name: "shard", Value: strconv.Itoa(i)}}, float64(m.shards[i].Load()))
	}

	t.Family("pegasus_inflight_queries", "gauge", "Query computations currently holding a worker-pool slot.")
	t.Sample("pegasus_inflight_queries", nil, float64(inFlight))
	t.Family("pegasus_generation", "gauge", "Backend generation (bumped by each rebuild).")
	t.Sample("pegasus_generation", nil, float64(generation))

	if persist != nil {
		t.Family("pegasus_persist_lookups_total", "counter", "Artifact-store reads by outcome.")
		t.Sample("pegasus_persist_lookups_total", []obs.Label{{Name: "result", Value: "hit"}}, float64(persist.Hits))
		t.Sample("pegasus_persist_lookups_total", []obs.Label{{Name: "result", Value: "miss"}}, float64(persist.Misses))
		t.Family("pegasus_persist_puts_total", "counter", "Artifacts written to the store.")
		t.Sample("pegasus_persist_puts_total", nil, float64(persist.Puts))
		t.Family("pegasus_persist_put_errors_total", "counter", "Failed artifact writes.")
		t.Sample("pegasus_persist_put_errors_total", nil, float64(persist.PutErrors))
		t.Family("pegasus_persist_bytes_written_total", "counter", "Encoded artifact bytes written.")
		t.Sample("pegasus_persist_bytes_written_total", nil, float64(persist.BytesWritten))
		t.Family("pegasus_persist_bytes_read_total", "counter", "Encoded artifact bytes read.")
		t.Sample("pegasus_persist_bytes_read_total", nil, float64(persist.BytesRead))
		t.Family("pegasus_persist_load_seconds_total", "counter", "Wall-clock time spent reading and decoding artifacts.")
		t.Sample("pegasus_persist_load_seconds_total", nil, persist.LoadMs/1e3)
	}

	rt := obs.ReadRuntime()
	t.Family("pegasus_goroutines", "gauge", "Goroutines currently live.")
	t.Sample("pegasus_goroutines", nil, float64(rt.Goroutines))
	t.Family("pegasus_heap_alloc_bytes", "gauge", "Heap bytes allocated and in use.")
	t.Sample("pegasus_heap_alloc_bytes", nil, float64(rt.HeapAllocBytes))
	t.Family("pegasus_heap_sys_bytes", "gauge", "Heap bytes obtained from the OS.")
	t.Sample("pegasus_heap_sys_bytes", nil, float64(rt.HeapSysBytes))
	t.Family("pegasus_heap_objects", "gauge", "Live heap objects.")
	t.Sample("pegasus_heap_objects", nil, float64(rt.HeapObjects))
	t.Family("pegasus_gc_cycles_total", "counter", "Completed GC cycles.")
	t.Sample("pegasus_gc_cycles_total", nil, float64(rt.GCCount))
	t.Family("pegasus_gc_pause_seconds_total", "counter", "Cumulative stop-the-world GC pause.")
	t.Sample("pegasus_gc_pause_seconds_total", nil, rt.GCPauseTotalMs/1e3)
	t.Family("pegasus_uptime_seconds", "gauge", "Seconds since the metrics collector started.")
	t.Sample("pegasus_uptime_seconds", nil, time.Since(m.start).Seconds())

	return t.Err()
}
