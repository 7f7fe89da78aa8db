package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"pegasus/internal/gen"
	"pegasus/internal/graph"
	"pegasus/internal/queries"
)

// fp builds the optional float parameters of QueryParams.
func fp(v float64) *float64 { return &v }

func testGraph() *graph.Graph {
	return gen.PlantedPartition(gen.SBMConfig{
		Nodes: 300, Communities: 4, AvgDegree: 8, MixingP: 0.05,
	}, 7)
}

// sharedSrv is a 2-shard server reused by read-only endpoint tests (building
// one runs summarization per shard, so tests share it). Tests that mutate
// server state (re-summarize) construct their own.
var (
	sharedOnce sync.Once
	sharedSrv  *Server
	sharedErr  error
)

func testServer(t testing.TB) *Server {
	t.Helper()
	sharedOnce.Do(func() {
		sharedSrv, sharedErr = New(context.Background(), testGraph(), Config{
			Shards:          2,
			PartitionMethod: "random",
			BudgetRatio:     0.5,
			Seed:            7,
		})
	})
	if sharedErr != nil {
		t.Fatalf("build shared server: %v", sharedErr)
	}
	return sharedSrv
}

func postJSON(t testing.TB, h http.Handler, path string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return do(t, h, httptest.NewRequest("POST", path, bytes.NewReader(raw)))
}

func do(t testing.TB, h http.Handler, req *http.Request) (*http.Response, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	res := rec.Result()
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res, raw
}

func decodeInto(t testing.TB, raw []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("decode %q: %v", raw, err)
	}
}

// TestRWRMatchesShardSummary is the acceptance check: an RWR query for a
// node on each shard must return exactly the scores SummaryRWR produces on
// that shard's own summary.
func TestRWRMatchesShardSummary(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	be := s.current().be

	queried := make(map[int]bool)
	for q := 0; q < len(be.c.Assign) && len(queried) < be.numShards(); q++ {
		shard := int(be.c.Assign[q])
		if queried[shard] {
			continue
		}
		queried[shard] = true

		res, raw := postJSON(t, h, "/v1/query/rwr", QueryRequest{Node: uint32(q)})
		if res.StatusCode != http.StatusOK {
			t.Fatalf("node %d: status %d: %s", q, res.StatusCode, raw)
		}
		var resp QueryResponse
		decodeInto(t, raw, &resp)
		if resp.Shard != shard {
			t.Errorf("node %d routed to shard %d, want %d", q, resp.Shard, shard)
		}
		want, err := queries.SummaryRWR(be.c.Machines[shard].Summary, graph.NodeID(q), queries.RWRConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Scores) != len(want) {
			t.Fatalf("node %d: %d scores, want %d", q, len(resp.Scores), len(want))
		}
		for i := range want {
			if math.Abs(resp.Scores[i]-want[i]) > 1e-12 {
				t.Fatalf("node %d: score[%d] = %g, want %g", q, i, resp.Scores[i], want[i])
			}
		}
	}
	if len(queried) != be.numShards() {
		t.Fatalf("exercised %d shards, want %d", len(queried), be.numShards())
	}
}

func TestHOPEndpoint(t *testing.T) {
	s := testServer(t)
	res, raw := postJSON(t, s.Handler(), "/v1/query/hop", QueryRequest{Node: 3})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", res.StatusCode, raw)
	}
	var resp QueryResponse
	decodeInto(t, raw, &resp)
	if len(resp.Dist) != s.current().be.numNodes() {
		t.Fatalf("%d distances, want %d", len(resp.Dist), s.current().be.numNodes())
	}
	if resp.Dist[3] != 0 {
		t.Errorf("dist[q] = %d, want 0", resp.Dist[3])
	}
}

func TestPHPEndpoint(t *testing.T) {
	s := testServer(t)
	res, raw := postJSON(t, s.Handler(), "/v1/query/php", QueryRequest{Node: 5})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", res.StatusCode, raw)
	}
	var resp QueryResponse
	decodeInto(t, raw, &resp)
	if len(resp.Scores) == 0 || resp.Scores[5] != 1 {
		t.Fatalf("php scores: len %d, scores[q]=%v, want scores[q]=1", len(resp.Scores), resp.Scores[5])
	}
}

func TestPageRankEndpoint(t *testing.T) {
	s := testServer(t)
	res, raw := postJSON(t, s.Handler(), "/v1/query/pagerank", QueryRequest{Node: 0})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", res.StatusCode, raw)
	}
	var resp QueryResponse
	decodeInto(t, raw, &resp)
	sum := 0.0
	for _, v := range resp.Scores {
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("pagerank mass %v, want ~1", sum)
	}
}

func TestTopKEndpoint(t *testing.T) {
	s := testServer(t)
	res, raw := postJSON(t, s.Handler(), "/v1/query/topk", QueryRequest{Node: 9, QueryParams: QueryParams{K: 5}})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", res.StatusCode, raw)
	}
	var resp QueryResponse
	decodeInto(t, raw, &resp)
	if len(resp.Top) != 5 {
		t.Fatalf("%d top entries, want 5", len(resp.Top))
	}
	for i := 1; i < len(resp.Top); i++ {
		if resp.Top[i].Score > resp.Top[i-1].Score {
			t.Fatalf("top not sorted: %v", resp.Top)
		}
	}
	if resp.Top[0].Node != 9 {
		t.Errorf("top-1 is node %d, want the query node 9", resp.Top[0].Node)
	}
}

func TestBadRequests(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	n := s.current().be.numNodes()

	cases := []struct {
		name string
		req  func() *http.Request
		want int
	}{
		{"unknown kind", func() *http.Request {
			return httptest.NewRequest("POST", "/v1/query/bogus", bytes.NewReader([]byte(`{"node":1}`)))
		}, http.StatusNotFound},
		{"wrong method", func() *http.Request {
			return httptest.NewRequest("GET", "/v1/query/rwr", nil)
		}, http.StatusMethodNotAllowed},
		{"malformed body", func() *http.Request {
			return httptest.NewRequest("POST", "/v1/query/rwr", bytes.NewReader([]byte(`{"node":`)))
		}, http.StatusBadRequest},
		{"unknown field", func() *http.Request {
			return httptest.NewRequest("POST", "/v1/query/rwr", bytes.NewReader([]byte(`{"nodeid":1}`)))
		}, http.StatusBadRequest},
		{"node out of range", func() *http.Request {
			body, _ := json.Marshal(QueryRequest{Node: uint32(n)})
			return httptest.NewRequest("POST", "/v1/query/rwr", bytes.NewReader(body))
		}, http.StatusBadRequest},
		{"bad topk metric", func() *http.Request {
			return httptest.NewRequest("POST", "/v1/query/topk", bytes.NewReader([]byte(`{"node":1,"metric":"degree"}`)))
		}, http.StatusBadRequest},
		{"negative k", func() *http.Request {
			return httptest.NewRequest("POST", "/v1/query/topk", bytes.NewReader([]byte(`{"node":1,"k":-3}`)))
		}, http.StatusBadRequest},
		{"oversized k", func() *http.Request {
			return httptest.NewRequest("POST", "/v1/query/topk", bytes.NewReader([]byte(`{"node":1,"k":100000}`)))
		}, http.StatusBadRequest},
		{"divergent php penalty", func() *http.Request {
			return httptest.NewRequest("POST", "/v1/query/php", bytes.NewReader([]byte(`{"node":1,"c":2}`)))
		}, http.StatusBadRequest},
		{"restart above 1", func() *http.Request {
			return httptest.NewRequest("POST", "/v1/query/rwr", bytes.NewReader([]byte(`{"node":1,"restart":1.5}`)))
		}, http.StatusBadRequest},
		{"negative eps", func() *http.Request {
			return httptest.NewRequest("POST", "/v1/query/rwr", bytes.NewReader([]byte(`{"node":1,"eps":-1}`)))
		}, http.StatusBadRequest},
		{"summarize bad alpha", func() *http.Request {
			return httptest.NewRequest("POST", "/v1/summarize", bytes.NewReader([]byte(`{"alpha":0.5}`)))
		}, http.StatusBadRequest},
		{"summarize target out of range", func() *http.Request {
			body := fmt.Sprintf(`{"targets":[%d]}`, n)
			return httptest.NewRequest("POST", "/v1/summarize", bytes.NewReader([]byte(body)))
		}, http.StatusBadRequest},
		{"report wrong method", func() *http.Request {
			return httptest.NewRequest("POST", "/v1/summary/report", nil)
		}, http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, raw := do(t, h, tc.req())
			if res.StatusCode != tc.want {
				t.Fatalf("status %d, want %d (%s)", res.StatusCode, tc.want, raw)
			}
		})
	}
}

func TestHealthz(t *testing.T) {
	s := testServer(t)
	res, raw := do(t, s.Handler(), httptest.NewRequest("GET", "/healthz", nil))
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
	var h healthResponse
	decodeInto(t, raw, &h)
	if h.Status != "ok" || h.Shards != 2 || h.Nodes != s.g.NumNodes() {
		t.Fatalf("health %+v", h)
	}
}

func TestSummaryReport(t *testing.T) {
	s := testServer(t)
	res, raw := do(t, s.Handler(), httptest.NewRequest("GET", "/v1/summary/report", nil))
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
	var rep ReportResponse
	decodeInto(t, raw, &rep)
	if len(rep.Shards) != 2 {
		t.Fatalf("%d shard reports, want 2", len(rep.Shards))
	}
	for i, r := range rep.Shards {
		if r.Nodes != s.g.NumNodes() || r.Supernodes == 0 {
			t.Errorf("shard %d report %+v", i, r)
		}
	}
}

// TestCacheHitViaMetrics is the acceptance check for the cache: repeated
// identical queries must hit, visible both in the response and in the
// /metrics hit counter.
func TestCacheHitViaMetrics(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	// A config unique to this test keeps other tests' queries out of the way.
	req := QueryRequest{Node: 11, QueryParams: QueryParams{Eps: fp(3e-9)}}

	var before Snapshot
	_, raw := do(t, h, httptest.NewRequest("GET", "/metrics", nil))
	decodeInto(t, raw, &before)

	res, raw := postJSON(t, h, "/v1/query/rwr", req)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", res.StatusCode, raw)
	}
	var first QueryResponse
	decodeInto(t, raw, &first)
	if first.Cached {
		t.Fatal("first query reported cached")
	}

	_, raw = postJSON(t, h, "/v1/query/rwr", req)
	var second QueryResponse
	decodeInto(t, raw, &second)
	if !second.Cached {
		t.Fatal("repeated identical query did not hit the cache")
	}

	var after Snapshot
	_, raw = do(t, h, httptest.NewRequest("GET", "/metrics", nil))
	decodeInto(t, raw, &after)
	if after.Cache.Hits <= before.Cache.Hits {
		t.Fatalf("cache hits did not grow: before %d, after %d", before.Cache.Hits, after.Cache.Hits)
	}
	if after.Requests <= before.Requests {
		t.Fatalf("request counter did not grow: %d -> %d", before.Requests, after.Requests)
	}
	if len(after.ShardQueries) != 2 {
		t.Fatalf("%d shard counters, want 2", len(after.ShardQueries))
	}
}

func TestConcurrentQueries(t *testing.T) {
	// Race-detector coverage of the full path: cache, singleflight, pool and
	// metrics under concurrent identical and distinct queries.
	s := testServer(t)
	h := s.Handler()
	var wg sync.WaitGroup
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				node := uint32((w * i) % 20)
				res, raw := postJSON(t, h, "/v1/query/rwr", QueryRequest{Node: node, QueryParams: QueryParams{Eps: fp(7e-9)}})
				if res.StatusCode != http.StatusOK {
					t.Errorf("worker %d: status %d: %s", w, res.StatusCode, raw)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSummarizeRebuild exercises POST /v1/summarize: the generation bumps,
// the cache purges, and subsequent queries answer on the new artifact.
func TestSummarizeRebuild(t *testing.T) {
	g := gen.PlantedPartition(gen.SBMConfig{
		Nodes: 150, Communities: 3, AvgDegree: 6, MixingP: 0.05,
	}, 11)
	s, err := New(context.Background(), g, Config{BudgetRatio: 0.6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	res, raw := postJSON(t, h, "/v1/query/rwr", QueryRequest{Node: 1})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("priming query: status %d: %s", res.StatusCode, raw)
	}
	_, raw = postJSON(t, h, "/v1/query/rwr", QueryRequest{Node: 1})
	var warm QueryResponse
	decodeInto(t, raw, &warm)
	if !warm.Cached {
		t.Fatal("warm query not cached")
	}

	res, raw = postJSON(t, h, "/v1/summarize", map[string]any{
		"budget_ratio": 0.4, "targets": []uint32{1, 2, 3},
	})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("summarize: status %d: %s", res.StatusCode, raw)
	}
	var rep ReportResponse
	decodeInto(t, raw, &rep)
	if rep.Generation != 2 {
		t.Fatalf("generation %d, want 2", rep.Generation)
	}
	if len(rep.Shards) != 1 {
		t.Fatalf("%d shard reports, want 1", len(rep.Shards))
	}

	// The cache was purged and the key namespace moved to generation 2.
	_, raw = postJSON(t, h, "/v1/query/rwr", QueryRequest{Node: 1})
	var fresh QueryResponse
	decodeInto(t, raw, &fresh)
	if fresh.Cached {
		t.Fatal("query served from a stale pre-rebuild cache entry")
	}
	if fresh.Generation != 2 {
		t.Fatalf("query generation %d, want 2", fresh.Generation)
	}
	want, err := queries.SummaryRWR(s.current().be.c.Machines[0].Summary, 1, queries.RWRConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(fresh.Scores[i]-want[i]) > 1e-12 {
			t.Fatalf("score[%d] = %g, want %g (new artifact)", i, fresh.Scores[i], want[i])
		}
	}
}

func TestQueryTimeout(t *testing.T) {
	g := gen.PlantedPartition(gen.SBMConfig{
		Nodes: 150, Communities: 3, AvgDegree: 6, MixingP: 0.05,
	}, 13)
	s, err := New(context.Background(), g, Config{
		BudgetRatio:  0.6,
		Seed:         13,
		QueryTimeout: time.Nanosecond, // every power iteration query must expire
		CacheEntries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, raw := postJSON(t, s.Handler(), "/v1/query/rwr", QueryRequest{Node: 1})
	if res.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", res.StatusCode, raw)
	}
}

// TestRunGracefulShutdown drives the real listener: serve, answer one
// request, cancel, drain.
func TestRunGracefulShutdown(t *testing.T) {
	g := gen.PlantedPartition(gen.SBMConfig{
		Nodes: 120, Communities: 3, AvgDegree: 6, MixingP: 0.05,
	}, 17)
	s, err := New(context.Background(), g, Config{Addr: "127.0.0.1:0", BudgetRatio: 0.6, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()

	deadline := time.Now().Add(5 * time.Second)
	for s.Addr() == "" {
		if time.Now().After(deadline) {
			t.Fatal("server never bound a listener")
		}
		time.Sleep(time.Millisecond)
	}
	res, err := http.Get("http://" + s.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("healthz over TCP: status %d", res.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown did not complete")
	}
}
