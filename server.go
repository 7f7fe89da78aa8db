package pegasus

import (
	"context"

	"pegasus/internal/server"
)

// Serving --------------------------------------------------------------------
//
// pegasus-serve turns the communication-free multi-query answering scheme of
// §IV into a running system: a summary (or a sharded cluster of summaries)
// is held in memory and node-similarity queries are answered over HTTP, each
// routed to the shard owning the query node.

type (
	// ServerConfig parameterizes the serving daemon (listen address, shard
	// count, partition method, per-shard budget, cache size, worker pool,
	// timeouts).
	ServerConfig = server.Config
	// Server is the summary-serving HTTP daemon.
	Server = server.Server
	// QueryRequest is the JSON body of POST /v1/query/{kind}.
	QueryRequest = server.QueryRequest
	// QueryResponse is the JSON answer of POST /v1/query/{kind}.
	QueryResponse = server.QueryResponse
	// QueryParams are the algorithm parameters shared by the single-query
	// and batch endpoints (pointer fields distinguish "absent" from an
	// explicit value; see the type's docs for the default-selection rule).
	QueryParams = server.QueryParams
	// BatchRequest is the JSON body of POST /v1/query/batch: one kind, one
	// shared parameter set, and a vector of query nodes answered in a
	// single round-trip with per-item results and errors.
	BatchRequest = server.BatchRequest
	// BatchResponse is the JSON answer of POST /v1/query/batch.
	BatchResponse = server.BatchResponse
	// BatchItem is the per-node answer inside a BatchResponse.
	BatchItem = server.BatchItem
	// SummarizeRequest is the JSON body of POST /v1/summarize (pointer
	// fields: absent keeps the current setting; each shard's target set is
	// its partition part ∩ the requested targets, or the whole part when
	// that is empty).
	SummarizeRequest = server.SummarizeRequest
	// SummarizeResponse is the JSON answer of POST /v1/summarize: the new
	// per-shard report plus the incremental-rebuild outcome (rebuilt /
	// reused shard counts).
	SummarizeResponse = server.SummarizeResponse
	// MetricsSnapshot is the JSON answer of GET /metrics.
	MetricsSnapshot = server.Snapshot
)

// NewServer builds the serving artifact for g per cfg — a single summary, or
// an Alg. 3 cluster when cfg.Shards >= 2 — and returns a ready Server. This
// runs summarization and can take a while on large graphs.
func NewServer(ctx context.Context, g *Graph, cfg ServerConfig) (*Server, error) {
	return server.New(ctx, g, cfg)
}

// Serve builds the serving artifact and serves HTTP on cfg.Addr until ctx is
// cancelled, then drains gracefully.
func Serve(ctx context.Context, g *Graph, cfg ServerConfig) error {
	s, err := server.New(ctx, g, cfg)
	if err != nil {
		return err
	}
	return s.Run(ctx)
}
