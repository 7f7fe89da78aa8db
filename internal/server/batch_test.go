package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pegasus/internal/gen"
	"pegasus/internal/graph"
	"pegasus/internal/queries"
)

// TestBatchRWRMatchesSingles is the batch acceptance check: a cross-shard
// batch must return, per item and in request order, exactly the scores the
// single-query endpoint returns, with the routing fan-out reported.
func TestBatchRWRMatchesSingles(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	be := s.current().be

	// Pick two nodes per shard so the batch exercises grouping.
	var nodes []uint32
	perShard := map[int]int{}
	for q := 0; q < len(be.c.Assign) && len(nodes) < 2*be.numShards(); q++ {
		sh := int(be.c.Assign[q])
		if perShard[sh] < 2 {
			perShard[sh]++
			nodes = append(nodes, uint32(q))
		}
	}

	res, raw := postJSON(t, h, "/v1/query/batch", BatchRequest{Kind: "rwr", Nodes: nodes})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", res.StatusCode, raw)
	}
	var resp BatchResponse
	decodeInto(t, raw, &resp)
	if resp.Kind != "rwr" || len(resp.Items) != len(nodes) {
		t.Fatalf("response kind %q with %d items, want rwr with %d", resp.Kind, len(resp.Items), len(nodes))
	}
	if resp.ShardGroups != be.numShards() {
		t.Errorf("shard_groups = %d, want %d", resp.ShardGroups, be.numShards())
	}
	for i, it := range resp.Items {
		if it.Node != nodes[i] {
			t.Fatalf("item %d is node %d, want %d (request order must be preserved)", i, it.Node, nodes[i])
		}
		if it.Error != "" {
			t.Fatalf("item %d (node %d) failed: %s", i, it.Node, it.Error)
		}
		if it.Shard != int(be.c.Assign[it.Node]) {
			t.Errorf("item %d routed to shard %d, want %d", i, it.Shard, be.c.Assign[it.Node])
		}
		want, err := queries.SummaryRWR(be.c.Machines[it.Shard].Summary, graph.NodeID(it.Node), queries.RWRConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if math.Abs(it.Scores[j]-want[j]) > 1e-12 {
				t.Fatalf("item %d: score[%d] = %g, want %g", i, j, it.Scores[j], want[j])
			}
		}
	}

	// The batch shares the cache with the single-query endpoint: a repeat of
	// one node as a single query must hit.
	res, raw = postJSON(t, h, "/v1/query/rwr", QueryRequest{Node: nodes[0]})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("single after batch: status %d: %s", res.StatusCode, raw)
	}
	var qr QueryResponse
	decodeInto(t, raw, &qr)
	if !qr.Cached {
		t.Error("single query after an identical batch item missed the cache")
	}
}

// TestBatchMixedValidity: out-of-range nodes fail individually; the rest of
// the batch still answers (partial success, not all-or-nothing).
func TestBatchMixedValidity(t *testing.T) {
	s := testServer(t)
	n := uint32(s.current().be.numNodes())

	res, raw := postJSON(t, s.Handler(), "/v1/query/batch",
		BatchRequest{Kind: "rwr", Nodes: []uint32{3, n, 5, n + 7}})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("mixed batch status %d, want 200 with per-item errors: %s", res.StatusCode, raw)
	}
	var resp BatchResponse
	decodeInto(t, raw, &resp)
	for _, i := range []int{0, 2} {
		if resp.Items[i].Error != "" || len(resp.Items[i].Scores) == 0 {
			t.Errorf("valid item %d: error=%q, %d scores", i, resp.Items[i].Error, len(resp.Items[i].Scores))
		}
	}
	for _, i := range []int{1, 3} {
		it := resp.Items[i]
		if it.Error == "" || !strings.Contains(it.Error, "out of range") {
			t.Errorf("invalid item %d: error = %q, want out-of-range", i, it.Error)
		}
		if it.Shard != -1 || it.Scores != nil {
			t.Errorf("invalid item %d carries shard %d / %d scores", i, it.Shard, len(it.Scores))
		}
	}
}

// TestBatchGroupingDeterminism: identical batches must produce identical
// routing and identical answers; the repeat must be served from the cache.
func TestBatchGroupingDeterminism(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	req := BatchRequest{
		Kind:  "rwr",
		Nodes: []uint32{20, 21, 22, 23, 24, 25, 20}, // includes a duplicate
		// An eps unique to this test keeps other tests' cache entries away.
		QueryParams: QueryParams{Eps: fp(11e-10)},
	}

	run := func() BatchResponse {
		res, raw := postJSON(t, h, "/v1/query/batch", req)
		if res.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", res.StatusCode, raw)
		}
		var resp BatchResponse
		decodeInto(t, raw, &resp)
		return resp
	}
	first := run()
	second := run()

	if first.ShardGroups != second.ShardGroups {
		t.Errorf("fan-out changed across identical batches: %d vs %d", first.ShardGroups, second.ShardGroups)
	}
	for i := range first.Items {
		a, b := first.Items[i], second.Items[i]
		if a.Shard != b.Shard {
			t.Errorf("item %d shard changed: %d vs %d", i, a.Shard, b.Shard)
		}
		if len(a.Scores) != len(b.Scores) {
			t.Fatalf("item %d score lengths differ", i)
		}
		for j := range a.Scores {
			if a.Scores[j] != b.Scores[j] {
				t.Fatalf("item %d score[%d] changed across identical batches: %g vs %g",
					i, j, a.Scores[j], b.Scores[j])
			}
		}
		if !b.Cached {
			t.Errorf("repeat batch item %d not served from cache", i)
		}
	}
	// The duplicate occurrence inside the first batch is a same-request
	// cache hit: the group computes node 20 once.
	if !first.Items[6].Cached {
		t.Error("duplicate node inside one batch did not reuse the first occurrence's result")
	}
}

// TestBatchKinds covers the non-score answer shapes (hop distances, ranked
// topk) and pagerank's per-shard cache sharing within a batch.
func TestBatchKinds(t *testing.T) {
	s := testServer(t)
	h := s.Handler()

	res, raw := postJSON(t, h, "/v1/query/batch", BatchRequest{Kind: "hop", Nodes: []uint32{2, 3}})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("hop batch: status %d: %s", res.StatusCode, raw)
	}
	var hop BatchResponse
	decodeInto(t, raw, &hop)
	for i, it := range hop.Items {
		if it.Error != "" || len(it.Dist) != s.current().be.numNodes() {
			t.Fatalf("hop item %d: error=%q, %d distances", i, it.Error, len(it.Dist))
		}
		if it.Dist[it.Node] != 0 {
			t.Errorf("hop item %d: dist[q] = %d, want 0", i, it.Dist[it.Node])
		}
	}

	res, raw = postJSON(t, h, "/v1/query/batch",
		BatchRequest{Kind: "topk", Nodes: []uint32{7, 8}, QueryParams: QueryParams{K: 4}})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("topk batch: status %d: %s", res.StatusCode, raw)
	}
	var topk BatchResponse
	decodeInto(t, raw, &topk)
	for i, it := range topk.Items {
		if it.Error != "" || len(it.Top) != 4 {
			t.Fatalf("topk item %d: error=%q, %d entries", i, it.Error, len(it.Top))
		}
		if it.Top[0].Node != it.Node {
			t.Errorf("topk item %d: top-1 is %d, want the query node %d", i, it.Top[0].Node, it.Node)
		}
	}

	// Two pagerank queries on the same shard share one vector: on a fresh
	// key space exactly one item of the pair computes it. The pair may run
	// concurrently, so either item may lead; the other reports cached,
	// whether it hit the stored vector or joined the in-flight computation.
	// The server is shared (and -count repeats this test), so empty its
	// cache first.
	s.cache.Purge()
	be := s.current().be
	var pair []uint32
	for q := 0; q < len(be.c.Assign) && len(pair) < 2; q++ {
		if be.c.Assign[q] == 0 {
			pair = append(pair, uint32(q))
		}
	}
	res, raw = postJSON(t, h, "/v1/query/batch",
		BatchRequest{Kind: "pagerank", Nodes: pair, QueryParams: QueryParams{Eps: fp(13e-10)}})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("pagerank batch: status %d: %s", res.StatusCode, raw)
	}
	var pr BatchResponse
	decodeInto(t, raw, &pr)
	if pr.Items[0].Error != "" || pr.Items[1].Error != "" {
		t.Fatalf("pagerank items failed: %q, %q", pr.Items[0].Error, pr.Items[1].Error)
	}
	if pr.Items[0].Cached == pr.Items[1].Cached {
		t.Errorf("same-shard pagerank pair reported cached %v and %v, want exactly one computed item",
			pr.Items[0].Cached, pr.Items[1].Cached)
	}
}

// TestBatchValidation: request-level failures reject the whole batch.
func TestBatchValidation(t *testing.T) {
	g := gen.PlantedPartition(gen.SBMConfig{Nodes: 80, Communities: 2, AvgDegree: 6, MixingP: 0.1}, 23)
	s, err := New(context.Background(), g, Config{BudgetRatio: 0.6, Seed: 23, BatchMax: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	cases := []struct {
		name string
		body string
	}{
		{"unknown kind", `{"kind":"bogus","nodes":[1]}`},
		{"missing kind", `{"nodes":[1]}`},
		{"empty nodes", `{"kind":"rwr","nodes":[]}`},
		{"absent nodes", `{"kind":"rwr"}`},
		{"over batch max", `{"kind":"rwr","nodes":[1,2,3,4,5]}`},
		{"bad param", `{"kind":"rwr","nodes":[1],"restart":1.5}`},
		{"explicit zero eps", `{"kind":"rwr","nodes":[1],"eps":0}`},
		{"bad topk metric", `{"kind":"topk","nodes":[1],"metric":"degree"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, raw := do(t, h, httptest.NewRequest("POST", "/v1/query/batch", strings.NewReader(tc.body)))
			if res.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%s)", res.StatusCode, raw)
			}
		})
	}
}

// TestBatchCancellationMidBatch: when the request context dies, items
// already in the cache still answer and the remaining items fail
// individually — the response stays 200 with partial results.
func TestBatchCancellationMidBatch(t *testing.T) {
	s := testServer(t)
	h := s.Handler()

	// Warm node 40 with a config unique to this test.
	warm := QueryParams{Eps: fp(17e-10)}
	res, raw := postJSON(t, h, "/v1/query/rwr", QueryRequest{Node: 40, QueryParams: warm})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("warm query: status %d: %s", res.StatusCode, raw)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body, err := json.Marshal(BatchRequest{Kind: "rwr", Nodes: []uint32{40, 41}, QueryParams: warm})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/query/batch", bytes.NewReader(body)).WithContext(ctx)
	res, raw = do(t, h, req)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("cancelled batch: status %d, want 200 with per-item errors: %s", res.StatusCode, raw)
	}
	var resp BatchResponse
	decodeInto(t, raw, &resp)
	if resp.Items[0].Error != "" || len(resp.Items[0].Scores) == 0 {
		t.Errorf("cached item should survive cancellation: error=%q", resp.Items[0].Error)
	}
	if resp.Items[1].Error == "" {
		t.Error("uncached item succeeded under a cancelled context")
	}
}

// TestBatchVsRebuildRace hammers the batch endpoint while POST /v1/summarize
// swaps the backend concurrently. Every batch must be internally coherent:
// one generation, and every successful item answered against a complete
// backend. Run with -race.
func TestBatchVsRebuildRace(t *testing.T) {
	g := gen.PlantedPartition(gen.SBMConfig{Nodes: 150, Communities: 3, AvgDegree: 6, MixingP: 0.05}, 29)
	s, err := New(context.Background(), g, Config{
		Shards: 2, PartitionMethod: "random", BudgetRatio: 0.6, Seed: 29, BuildWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	const rebuilds = 2
	const batchers = 3
	var wg sync.WaitGroup
	errc := make(chan error, batchers*64+rebuilds)
	stop := make(chan struct{})
	for b := 0; b < batchers; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				base := uint32((b*17 + i*5) % (g.NumNodes() - 3))
				res, raw := postJSON(t, h, "/v1/query/batch",
					BatchRequest{Kind: "rwr", Nodes: []uint32{base, base + 1, base + 2}})
				if res.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("batch during rebuild: status %d: %s", res.StatusCode, raw)
					return
				}
				var resp BatchResponse
				decodeInto(t, raw, &resp)
				for j, it := range resp.Items {
					if it.Error != "" {
						errc <- fmt.Errorf("batch item %d failed during rebuild: %s", j, it.Error)
						return
					}
					if len(it.Scores) != g.NumNodes() {
						errc <- fmt.Errorf("batch item %d: %d scores, want %d", j, len(it.Scores), g.NumNodes())
						return
					}
				}
			}
		}(b)
	}
	for r := 0; r < rebuilds; r++ {
		res, raw := postJSON(t, h, "/v1/summarize", map[string]any{"budget_ratio": 0.5 + 0.1*float64(r)})
		if res.StatusCode != http.StatusOK {
			errc <- fmt.Errorf("rebuild %d: status %d: %s", r, res.StatusCode, raw)
		}
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestBatchMetrics: batch requests must surface in the /metrics batch
// section with size and fan-out aggregates.
func TestBatchMetrics(t *testing.T) {
	s := testServer(t)
	h := s.Handler()

	var before Snapshot
	_, raw := do(t, h, httptest.NewRequest("GET", "/metrics", nil))
	decodeInto(t, raw, &before)

	res, raw := postJSON(t, h, "/v1/query/batch", BatchRequest{Kind: "hop", Nodes: []uint32{60, 61, 62}})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", res.StatusCode, raw)
	}

	var after Snapshot
	_, raw = do(t, h, httptest.NewRequest("GET", "/metrics", nil))
	decodeInto(t, raw, &after)
	if after.Batch.Count != before.Batch.Count+1 {
		t.Errorf("batch count %d, want %d", after.Batch.Count, before.Batch.Count+1)
	}
	if after.Batch.Items != before.Batch.Items+3 {
		t.Errorf("batch items %d, want %d", after.Batch.Items, before.Batch.Items+3)
	}
	if after.Batch.ShardGroups <= before.Batch.ShardGroups {
		t.Error("batch shard-group counter did not grow")
	}
	if after.Batch.AvgSize <= 0 || after.Batch.AvgFanout <= 0 {
		t.Errorf("batch averages not populated: %+v", after.Batch)
	}
	if after.Endpoints["query/batch"] == 0 {
		t.Error("query/batch endpoint label missing from metrics")
	}
}

// TestBatchTimeoutBudget: the batch shares one QueryTimeout; a server with
// an expired budget fails items individually rather than 5xx-ing the batch.
func TestBatchTimeoutBudget(t *testing.T) {
	g := gen.PlantedPartition(gen.SBMConfig{Nodes: 150, Communities: 3, AvgDegree: 6, MixingP: 0.05}, 31)
	s, err := New(context.Background(), g, Config{
		BudgetRatio:  0.6,
		Seed:         31,
		QueryTimeout: time.Nanosecond,
		CacheEntries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, raw := postJSON(t, s.Handler(), "/v1/query/batch", BatchRequest{Kind: "rwr", Nodes: []uint32{1, 2}})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 with per-item timeouts: %s", res.StatusCode, raw)
	}
	var resp BatchResponse
	decodeInto(t, raw, &resp)
	for i, it := range resp.Items {
		if !strings.Contains(it.Error, "timed out") {
			t.Errorf("item %d error = %q, want a timeout", i, it.Error)
		}
	}
}

// TestBatchSingleShardSharedSession covers the concurrent single-shard
// batch: the shard group fans out over as many workers as the worker pool
// admits, and all of them answer through the shard's one query session.
// With the cache disabled every item recomputes, concurrently on the
// pooled server — the -race CI passes make this the data-race check of the
// shared session — and the pooled answers must stay bit-identical to a
// sequential (Workers: 1) server's and to the reference computation on the
// underlying summary.
func TestBatchSingleShardSharedSession(t *testing.T) {
	g := testGraph()
	build := func(workers int) *Server {
		t.Helper()
		s, err := New(context.Background(), g, Config{
			BudgetRatio:  0.5,
			Seed:         7,
			Workers:      workers,
			CacheEntries: -1, // no cache: every batch item computes
		})
		if err != nil {
			t.Fatalf("build server (workers=%d): %v", workers, err)
		}
		return s
	}
	pooled := build(4)
	seq := build(1)

	nodes := make([]uint32, 24)
	for i := range nodes {
		nodes[i] = uint32((i * 11) % g.NumNodes())
	}
	run := func(s *Server) BatchResponse {
		res, raw := postJSON(t, s.Handler(), "/v1/query/batch", BatchRequest{Kind: "rwr", Nodes: nodes})
		if res.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", res.StatusCode, raw)
		}
		var resp BatchResponse
		decodeInto(t, raw, &resp)
		return resp
	}
	rp, rs := run(pooled), run(seq)
	if rp.ShardGroups != 1 || rs.ShardGroups != 1 {
		t.Fatalf("shard_groups = %d/%d, want 1 (single-shard backend)", rp.ShardGroups, rs.ShardGroups)
	}
	sum := pooled.current().be.c.Machines[0].Summary
	for i := range rp.Items {
		a, b := rp.Items[i], rs.Items[i]
		if a.Error != "" || b.Error != "" {
			t.Fatalf("item %d failed: pooled=%q sequential=%q", i, a.Error, b.Error)
		}
		want, err := queries.SummaryRWR(sum, graph.NodeID(a.Node), queries.RWRConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Scores) != len(b.Scores) || len(a.Scores) != len(want) {
			t.Fatalf("item %d score lengths differ: %d pooled, %d sequential, %d reference",
				i, len(a.Scores), len(b.Scores), len(want))
		}
		for j := range a.Scores {
			if a.Scores[j] != b.Scores[j] || a.Scores[j] != want[j] {
				t.Fatalf("item %d score[%d]: pooled %g, sequential %g, reference %g — sharing the session must not perturb answers",
					i, j, a.Scores[j], b.Scores[j], want[j])
			}
		}
	}
}
