package server

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"pegasus/internal/obs"
	"pegasus/internal/persist"
)

// histBuckets is the number of latency histogram buckets; bucket 0 counts
// sub-microsecond requests and bucket i >= 1 counts latencies in
// [2^(i-1), 2^i) microseconds (the bits.Len64 bucketing below), so the
// histogram spans 1µs to ~9 minutes.
const histBuckets = 30

// Metrics aggregates serving telemetry with lock-free counters on the hot
// path. Per-endpoint and per-shard counters are fixed arrays of atomics
// sized at construction.
type Metrics struct {
	start    time.Time
	requests atomic.Uint64
	errors   atomic.Uint64

	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	cacheShared atomic.Uint64

	batches     atomic.Uint64
	batchItems  atomic.Uint64
	batchGroups atomic.Uint64

	rebuilds      atomic.Uint64
	shardsRebuilt atomic.Uint64
	shardsReused  atomic.Uint64
	shardsLoaded  atomic.Uint64

	latency [histBuckets]atomic.Uint64
	latSum  atomic.Uint64 // microseconds

	mu        sync.Mutex
	endpoints map[string]*endpointStats
	shards    []atomic.Uint64
}

// endpointStats is the per-endpoint slice of the telemetry: a request count
// plus its own latency histogram, so the Prometheus exposition can break
// durations down by endpoint while the JSON snapshot keeps publishing the
// counts alone (its shape predates the histograms and stays compatible).
type endpointStats struct {
	count  atomic.Uint64
	errors atomic.Uint64
	sumUs  atomic.Uint64
	hist   [histBuckets]atomic.Uint64
}

// NewMetrics returns a Metrics tracking numShards per-shard counters.
func NewMetrics(numShards int) *Metrics {
	return &Metrics{
		start:     time.Now(),
		endpoints: make(map[string]*endpointStats),
		shards:    make([]atomic.Uint64, numShards),
	}
}

// ObserveRequest records one served request: its endpoint, latency, and
// whether it ended in an error status.
func (m *Metrics) ObserveRequest(endpoint string, d time.Duration, isError bool) {
	m.requests.Add(1)
	if isError {
		m.errors.Add(1)
	}
	us := uint64(d.Microseconds())
	m.latSum.Add(us)
	b := bits.Len64(us) // [2^(b-1), 2^b) for us > 0
	if b >= histBuckets {
		b = histBuckets - 1
	}
	m.latency[b].Add(1)
	ep := m.endpointStats(endpoint)
	ep.count.Add(1)
	if isError {
		ep.errors.Add(1)
	}
	ep.sumUs.Add(us)
	ep.hist[b].Add(1)
}

func (m *Metrics) endpointStats(endpoint string) *endpointStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.endpoints[endpoint]
	if !ok {
		c = new(endpointStats)
		m.endpoints[endpoint] = c
	}
	return c
}

// ObserveShard records a query routed to shard i.
func (m *Metrics) ObserveShard(i int) {
	if i >= 0 && i < len(m.shards) {
		m.shards[i].Add(1)
	}
}

// ObserveBatch records one batch request: how many query nodes it carried
// and how many distinct shard groups it fanned out to.
func (m *Metrics) ObserveBatch(items, groups int) {
	m.batches.Add(1)
	m.batchItems.Add(uint64(items))
	m.batchGroups.Add(uint64(groups))
}

// ObserveRebuild records one POST /v1/summarize rebuild: how many shard
// summaries were rebuilt from scratch, how many were transplanted from the
// previous backend, and how many were decoded from the artifact store.
func (m *Metrics) ObserveRebuild(rebuilt, reused, loaded int) {
	m.rebuilds.Add(1)
	m.shardsRebuilt.Add(uint64(rebuilt))
	m.shardsReused.Add(uint64(reused))
	m.shardsLoaded.Add(uint64(loaded))
}

// ObserveCache records a cache lookup outcome.
func (m *Metrics) ObserveCache(s CacheStatus) {
	switch s {
	case CacheHit:
		m.cacheHits.Add(1)
	case CacheShared:
		m.cacheShared.Add(1)
	default:
		m.cacheMisses.Add(1)
	}
}

// percentile returns the upper bound of the bucket containing the p-th
// percentile request (p in [0,1]), in milliseconds.
func (m *Metrics) percentile(p float64) float64 {
	var counts [histBuckets]uint64
	total := uint64(0)
	for i := range counts {
		counts[i] = m.latency[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(p * float64(total))
	if rank >= total {
		rank = total - 1
	}
	cum := uint64(0)
	for i, c := range counts {
		cum += c
		if cum > rank {
			return float64(uint64(1)<<uint(i)) / 1000.0 // bucket upper bound, µs→ms
		}
	}
	return float64(uint64(1)<<uint(histBuckets)) / 1000.0
}

// BatchMetrics is the batch-endpoint section of a metrics snapshot.
type BatchMetrics struct {
	// Count is the number of POST /v1/query/batch requests served.
	Count uint64 `json:"count"`
	// Items is the total number of query nodes across all batches.
	Items uint64 `json:"items"`
	// ShardGroups is the total routing fan-out across all batches.
	ShardGroups uint64 `json:"shard_groups"`
	// AvgSize is Items/Count — how many queries one round-trip amortizes.
	AvgSize float64 `json:"avg_size"`
	// AvgFanout is ShardGroups/Count — how many shards a batch touches.
	AvgFanout float64 `json:"avg_fanout"`
}

// RebuildMetrics is the incremental-rebuild section of a metrics snapshot.
type RebuildMetrics struct {
	// Count is the number of successful POST /v1/summarize rebuilds.
	Count uint64 `json:"count"`
	// ShardsRebuilt is the total number of shard summaries built from
	// scratch across all rebuilds.
	ShardsRebuilt uint64 `json:"shards_rebuilt"`
	// ShardsReused is the total number of shard summaries transplanted
	// bit-identically instead of rebuilt.
	ShardsReused uint64 `json:"shards_reused"`
	// ShardsLoaded is the total number of shard summaries decoded from the
	// on-disk artifact store instead of rebuilt (zero without a cache dir).
	ShardsLoaded uint64 `json:"shards_loaded"`
	// ReuseRate is the fraction of shards satisfied without summarizing —
	// (ShardsReused + ShardsLoaded) / all shards across rebuilds.
	ReuseRate float64 `json:"reuse_rate"`
}

// CacheMetrics is the cache section of a metrics snapshot.
type CacheMetrics struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	Shared  uint64  `json:"shared"` // singleflight-deduplicated lookups
	HitRate float64 `json:"hit_rate"`
	Entries int     `json:"entries"`
	// Bytes is the stored entries' keys plus their values' payload: 8 B
	// per score of a score vector, 4 B per hop distance, 16 B per ranked
	// top-k entry.
	Bytes int64 `json:"bytes"`
}

// Snapshot is a point-in-time view of the serving telemetry, served as JSON
// by GET /metrics.
type Snapshot struct {
	UptimeSeconds float64        `json:"uptime_seconds"`
	Requests      uint64         `json:"requests"`
	Errors        uint64         `json:"errors"`
	QPS           float64        `json:"qps"`
	LatencyAvgMs  float64        `json:"latency_avg_ms"`
	LatencyP50Ms  float64        `json:"latency_p50_ms"`
	LatencyP90Ms  float64        `json:"latency_p90_ms"`
	LatencyP99Ms  float64        `json:"latency_p99_ms"`
	Cache         CacheMetrics   `json:"cache"`
	Batch         BatchMetrics   `json:"batch"`
	Rebuild       RebuildMetrics `json:"rebuild"`
	// Persist is the artifact-store section (hits, misses, bytes moved,
	// cumulative load time); nil when no cache dir is configured.
	Persist      *PersistMetrics   `json:"persist,omitempty"`
	Endpoints    map[string]uint64 `json:"endpoints"`
	ShardQueries []uint64          `json:"shard_queries"`
	InFlight     int               `json:"in_flight"`
	Generation   uint64            `json:"generation"`
	// Runtime is the Go runtime section: process health next to the request
	// counters. Purely additive — every pre-existing field above keeps its
	// name and shape.
	Runtime RuntimeMetrics `json:"runtime"`
}

// RuntimeMetrics is the Go runtime section of a metrics snapshot.
type RuntimeMetrics struct {
	Goroutines     int     `json:"goroutines"`
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
	HeapSysBytes   uint64  `json:"heap_sys_bytes"`
	HeapObjects    uint64  `json:"heap_objects"`
	GCCount        uint32  `json:"gc_count"`
	GCPauseTotalMs float64 `json:"gc_pause_total_ms"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
}

// PersistMetrics is the artifact-store section of a metrics snapshot: the
// disk-tier counterpart of the query cache's hit/miss counters. It is the
// store's own stats snapshot verbatim (persist.Stats defines the fields and
// JSON shape), so new store counters appear in /metrics without a mirror
// struct to keep in sync.
type PersistMetrics = persist.Stats

// SnapshotNow assembles a snapshot; cacheEntries, cacheBytes, inFlight,
// generation and persist come from the server because Metrics does not own
// those components (persist is nil when no artifact store is configured).
func (m *Metrics) SnapshotNow(cacheEntries int, cacheBytes int64, inFlight int, generation uint64, persist *PersistMetrics) Snapshot {
	uptime := time.Since(m.start).Seconds()
	reqs := m.requests.Load()
	hits, misses, shared := m.cacheHits.Load(), m.cacheMisses.Load(), m.cacheShared.Load()
	s := Snapshot{
		UptimeSeconds: uptime,
		Requests:      reqs,
		Errors:        m.errors.Load(),
		LatencyP50Ms:  m.percentile(0.50),
		LatencyP90Ms:  m.percentile(0.90),
		LatencyP99Ms:  m.percentile(0.99),
		Cache: CacheMetrics{
			Hits:    hits,
			Misses:  misses,
			Shared:  shared,
			Entries: cacheEntries,
			Bytes:   cacheBytes,
		},
		Endpoints:    make(map[string]uint64),
		ShardQueries: make([]uint64, len(m.shards)),
		InFlight:     inFlight,
		Generation:   generation,
	}
	if uptime > 0 {
		s.QPS = float64(reqs) / uptime
	}
	if reqs > 0 {
		s.LatencyAvgMs = float64(m.latSum.Load()) / float64(reqs) / 1000.0
	}
	if lookups := hits + misses + shared; lookups > 0 {
		// Shared lookups count as hits: the work was deduplicated away.
		s.Cache.HitRate = float64(hits+shared) / float64(lookups)
	}
	s.Batch = BatchMetrics{
		Count:       m.batches.Load(),
		Items:       m.batchItems.Load(),
		ShardGroups: m.batchGroups.Load(),
	}
	if s.Batch.Count > 0 {
		s.Batch.AvgSize = float64(s.Batch.Items) / float64(s.Batch.Count)
		s.Batch.AvgFanout = float64(s.Batch.ShardGroups) / float64(s.Batch.Count)
	}
	s.Rebuild = RebuildMetrics{
		Count:         m.rebuilds.Load(),
		ShardsRebuilt: m.shardsRebuilt.Load(),
		ShardsReused:  m.shardsReused.Load(),
		ShardsLoaded:  m.shardsLoaded.Load(),
	}
	if total := s.Rebuild.ShardsRebuilt + s.Rebuild.ShardsReused + s.Rebuild.ShardsLoaded; total > 0 {
		s.Rebuild.ReuseRate = float64(s.Rebuild.ShardsReused+s.Rebuild.ShardsLoaded) / float64(total)
	}
	s.Persist = persist
	m.mu.Lock()
	for name, c := range m.endpoints {
		s.Endpoints[name] = c.count.Load()
	}
	m.mu.Unlock()
	for i := range m.shards {
		s.ShardQueries[i] = m.shards[i].Load()
	}
	rt := obs.ReadRuntime()
	s.Runtime = RuntimeMetrics{
		Goroutines:     rt.Goroutines,
		HeapAllocBytes: rt.HeapAllocBytes,
		HeapSysBytes:   rt.HeapSysBytes,
		HeapObjects:    rt.HeapObjects,
		GCCount:        rt.GCCount,
		GCPauseTotalMs: rt.GCPauseTotalMs,
		UptimeSeconds:  uptime,
	}
	return s
}
