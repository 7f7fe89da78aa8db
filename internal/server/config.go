package server

import (
	"fmt"
	"runtime"
	"time"

	"pegasus/internal/graph"
	"pegasus/internal/partition"
)

// Config parameterizes the serving daemon. Zero values select defaults.
type Config struct {
	// Addr is the listen address (default ":8080").
	Addr string
	// Shards is the number of machines in the serving cluster (default 1:
	// one machine whose partition part is all of V, so every query routes
	// to shard 0).
	Shards int
	// PartitionMethod divides the node set across shards when Shards >= 2:
	// "louvain", "blp", "shpi", "shpii", "shpkl" or "random" (default
	// "random").
	PartitionMethod string
	// BudgetRatio is the per-shard summary budget as a fraction of Size(G)
	// (default 0.5) — the k of Alg. 3, expressed relatively.
	BudgetRatio float64
	// Targets personalizes the summaries: each shard i is personalized to
	// the intersection of its partition part with Targets, while parts
	// containing no target keep their whole-part personalization (Alg. 3)
	// — so a hot reconfiguration that changes targets inside one part
	// rebuilds only that shard. Order and repeats do not matter. On an
	// unsharded server the one part is V: the summary personalizes to
	// Targets, or is the non-personalized summary when Targets is empty.
	Targets []graph.NodeID
	// Alpha is the degree of personalization (default 1.25).
	Alpha float64
	// Seed drives partitioning and summarization randomness.
	Seed int64
	// CacheEntries bounds the query-result cache (default 4096; negative
	// disables storage, keeping only singleflight dedup).
	CacheEntries int
	// Workers bounds concurrently executing query computations (default
	// GOMAXPROCS).
	Workers int
	// BatchMax bounds the number of query nodes accepted by one
	// POST /v1/query/batch request (default 256). Larger batches are
	// rejected with a 400; clients should split them.
	BatchMax int
	// BuildWorkers bounds the shard summaries built concurrently, both at
	// startup and on POST /v1/summarize hot rebuilds (default GOMAXPROCS;
	// 1 builds one shard at a time). Each shard's engine is sequential, so
	// the value has no effect on an unsharded server. Any value produces
	// the same artifact for a fixed seed.
	BuildWorkers int
	// CacheDir, when non-empty, enables disk-backed shard artifacts: every
	// built shard summary is persisted under its content key
	// (<CacheDir>/<shardkey>.pgsum), startup loads any shard whose key is
	// already filed instead of rebuilding it (a warm start from a populated
	// directory performs zero summarizations), and each POST /v1/summarize
	// persists the shards it rebuilds. Artifacts found corrupt or written by
	// an unknown codec version are rebuilt, never trusted. One server should
	// own a directory: successful builds garbage-collect it down to the
	// serving key set. Empty keeps the cluster purely in-memory.
	CacheDir string
	// QueryTimeout bounds each query computation (default 30s).
	QueryTimeout time.Duration
	// ShutdownGrace bounds the drain on graceful shutdown (default 10s).
	ShutdownGrace time.Duration
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// SlowLogThreshold is the latency at or above which a request is recorded
	// in the slow-query log served at GET /debug/slowlog, together with its
	// full span timeline (default 500ms; negative disables the log).
	SlowLogThreshold time.Duration
	// SlowLogEntries bounds the slow-query ring buffer (default 128).
	SlowLogEntries int
}

func (c Config) withDefaults() (Config, error) {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Shards < 1 {
		return c, fmt.Errorf("server: Shards must be >= 1, got %d", c.Shards)
	}
	if c.PartitionMethod == "" {
		c.PartitionMethod = string(partition.MethodRandom)
	}
	if c.Shards > 1 {
		switch partition.Method(c.PartitionMethod) {
		case partition.MethodLouvain, partition.MethodBLP, partition.MethodSHPI,
			partition.MethodSHPII, partition.MethodSHPKL, partition.MethodRandom:
		default:
			return c, fmt.Errorf("server: unknown partition method %q", c.PartitionMethod)
		}
	}
	if c.BudgetRatio == 0 {
		c.BudgetRatio = 0.5
	}
	// NaN sneaks past plain range checks (NaN < 0 is false) and would poison
	// the bit budget, so non-finite values are rejected explicitly.
	if !isFinite(c.BudgetRatio) || c.BudgetRatio < 0 {
		return c, fmt.Errorf("server: BudgetRatio must be a finite positive value, got %v", c.BudgetRatio)
	}
	if !isFinite(c.Alpha) {
		return c, fmt.Errorf("server: Alpha must be finite, got %v", c.Alpha)
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.BatchMax == 0 {
		c.BatchMax = 256
	}
	if c.BatchMax < 1 {
		return c, fmt.Errorf("server: BatchMax must be >= 1 (or 0 for the default 256), got %d", c.BatchMax)
	}
	if c.BuildWorkers == 0 {
		c.BuildWorkers = runtime.GOMAXPROCS(0)
	}
	if c.BuildWorkers < 1 {
		return c, fmt.Errorf("server: BuildWorkers must be >= 1 (or 0 for GOMAXPROCS), got %d", c.BuildWorkers)
	}
	if c.QueryTimeout == 0 {
		c.QueryTimeout = 30 * time.Second
	}
	if c.ShutdownGrace == 0 {
		c.ShutdownGrace = 10 * time.Second
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.SlowLogThreshold == 0 {
		c.SlowLogThreshold = 500 * time.Millisecond
	}
	if c.SlowLogEntries == 0 {
		c.SlowLogEntries = 128
	}
	if c.SlowLogEntries < 1 {
		return c, fmt.Errorf("server: SlowLogEntries must be >= 1 (or 0 for the default 128), got %d", c.SlowLogEntries)
	}
	return c, nil
}
