package server

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"pegasus/internal/graph"
	"pegasus/internal/obs"
)

// BatchRequest is the JSON body of POST /v1/query/batch: one query kind,
// one shared parameter set, and a vector of query nodes. The server routes
// the whole vector in one pass, groups the nodes by owning shard, and
// answers the per-shard groups concurrently — the multi-query workload
// shape of §IV/§V in one HTTP round-trip instead of len(nodes) round-trips.
type BatchRequest struct {
	// Kind is the query kind: "rwr", "hop", "php", "pagerank" or "topk".
	Kind string `json:"kind"`
	// Nodes are the query nodes, at most ServerConfig.BatchMax of them.
	// Duplicates are answered per occurrence; when the result cache is
	// enabled (the default), repeats are served from the first
	// occurrence's entry, but with caching disabled each occurrence
	// recomputes.
	Nodes []uint32 `json:"nodes"`
	QueryParams
}

// BatchItem is the answer for one node of a batch, in request order. Items
// fail independently: an out-of-range node or a timed-out computation sets
// Error on its own item and leaves the rest of the batch intact.
type BatchItem struct {
	Node uint32 `json:"node"`
	// Shard is the shard that answered (or would have answered) the item;
	// -1 when the node could not be routed.
	Shard int `json:"shard"`
	// Cached reports that this item did not compute its answer: it came
	// from the result cache or from an identical in-flight computation.
	Cached bool `json:"cached"`
	// Error is set when this item failed; exactly one of Error or the
	// result fields is populated.
	Error  string      `json:"error,omitempty"`
	Scores []float64   `json:"scores,omitempty"`
	Dist   []int32     `json:"dist,omitempty"`
	Top    []NodeScore `json:"top,omitempty"`
}

// BatchResponse is the JSON answer of POST /v1/query/batch. The response is
// 200 whenever the request itself was well-formed, even if individual items
// failed — partial success is the point of the endpoint.
type BatchResponse struct {
	Kind       string `json:"kind"`
	Generation uint64 `json:"generation"`
	// ShardGroups is the routing fan-out: how many distinct shards the
	// batch touched (= the number of concurrent per-shard groups).
	ShardGroups int         `json:"shard_groups"`
	Items       []BatchItem `json:"items"`
	// Trace is the span timeline of this batch (one batch.shard span per
	// shard group), present only when the client asked with ?debug=1.
	Trace *obs.TraceView `json:"trace,omitempty"`
}

// handleBatch answers POST /v1/query/batch. One backend generation is
// snapshotted for the whole batch, the nodes are routed and grouped by
// shard in a single pass, and each shard group runs on its own goroutine,
// answering through the shard's one query session (its RWR/PHP precompute
// was paid when the backend was built) while cache misses within one group
// still compute concurrently. Individual computations go through the
// per-item cache with singleflight dedup and the bounded worker pool.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	switch req.Kind {
	case "rwr", "hop", "php", "pagerank", "topk":
	default:
		writeError(w, http.StatusBadRequest,
			"unknown batch kind %q (want rwr, hop, php, pagerank or topk)", req.Kind)
		return
	}
	if len(req.Nodes) == 0 {
		writeError(w, http.StatusBadRequest, "nodes must contain at least one query node")
		return
	}
	if len(req.Nodes) > s.cfg.BatchMax {
		writeError(w, http.StatusBadRequest,
			"batch of %d nodes exceeds the limit of %d (ServerConfig.BatchMax)", len(req.Nodes), s.cfg.BatchMax)
		return
	}
	metric, msg := req.metricFor(req.Kind)
	if msg == "" {
		msg = req.validate()
	}
	if msg != "" {
		writeError(w, http.StatusBadRequest, "%s", msg)
		return
	}
	p := req.resolved(metric)

	box := s.current()
	be := box.be

	// One routing pass: per-item range/routing failures become per-item
	// errors, valid items are grouped by owning shard in request order.
	items := make([]BatchItem, len(req.Nodes))
	groups := make(map[int][]int)
	for i, nd := range req.Nodes {
		items[i].Node = nd
		items[i].Shard = -1
		if int(nd) >= be.numNodes() {
			items[i].Error = fmt.Sprintf("query node %d out of range (|V|=%d)", nd, be.numNodes())
			continue
		}
		shard, err := be.shard(graph.NodeID(nd))
		if err != nil {
			items[i].Error = err.Error()
			continue
		}
		items[i].Shard = shard
		s.metrics.ObserveShard(shard)
		groups[shard] = append(groups[shard], i)
	}
	s.metrics.ObserveBatch(len(req.Nodes), len(groups))

	// QueryTimeout bounds the whole batch: items the budget does not reach
	// fail individually with a timeout error (cache hits still succeed).
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.QueryTimeout)
	defer cancel()

	var wg sync.WaitGroup
	for shard, idxs := range groups {
		wg.Add(1)
		go func(shard int, idxs []int) {
			defer wg.Done()
			// One span per shard group; the group's cache/compute spans
			// nest under it. Concurrent groups append to the shared trace
			// safely (span appends are mutex-serialized).
			gctx, sp := obs.StartSpan(ctx, "batch.shard")
			sp.AttrInt("shard", shard)
			sp.AttrInt("items", len(idxs))
			defer sp.End()
			s.runShardGroup(gctx, box, req.Kind, metric, p, shard, idxs, items)
		}(shard, idxs)
	}
	wg.Wait()

	writeJSON(w, http.StatusOK, BatchResponse{
		Kind:        req.Kind,
		Generation:  box.gen,
		ShardGroups: len(groups),
		Items:       items,
		Trace:       debugTrace(r),
	})
}

// runShardGroup answers one shard's slice of a batch on
// min(len(idxs), Pool.Size()) workers that pull items off a shared atomic
// cursor, so a single-shard batch of cache misses computes concurrently up
// to the pool bound rather than sequentially; more workers than pool slots
// would only queue. All workers answer through the shard's one session,
// which is safe for concurrent use. Each item still takes its own
// cache/singleflight lookup, and every computation acquires the bounded
// worker pool inside its compute closure, so a large batch cannot exceed
// the pool any more than single queries can. Item results land in disjoint
// items[i] slots, so neither the group's workers nor concurrent groups
// contend.
func (s *Server) runShardGroup(ctx context.Context, box *backendBox, kind, metric string, p queryParams, shard int, idxs []int, items []BatchItem) {
	workers := min(len(idxs), s.pool.Size())
	var next atomic.Int64
	run := func() {
		for {
			k := int(next.Add(1)) - 1
			if k >= len(idxs) {
				return
			}
			it := &items[idxs[k]]
			key, compute := s.plan(box, kind, metric, graph.NodeID(it.Node), shard, p)
			val, status, err := s.cache.GetOrCompute(ctx, key, func() (any, error) { return compute(ctx) })
			if err != nil {
				it.Error = queryErrorString(err)
				continue
			}
			s.metrics.ObserveCache(status)
			it.Cached = status != CacheMiss
			fillResult(&it.Scores, &it.Dist, &it.Top, kind, val)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
}
