package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"pegasus/internal/graph"
)

// The storage rule of the result cache: a top-k lookup stores its k ranked
// entries, not the node-scoped score vector it ranks, while full-vector
// answers and shard-scoped PageRank vectors are stored as before.

// freshServer builds a 2-shard server with an empty cache, so a test can
// count exactly what its own queries stored.
func freshServer(t *testing.T, workers int) *Server {
	t.Helper()
	return mustServer(t, testGraph(), Config{
		Shards:          2,
		PartitionMethod: "random",
		BudgetRatio:     0.5,
		Seed:            7,
		Workers:         workers,
	})
}

// keyOf is the cache key a query with default parameters is stored under.
func keyOf(t *testing.T, s *Server, kind, metric string, q uint32, k int) string {
	t.Helper()
	box := s.current()
	shard, err := box.be.shard(graph.NodeID(q))
	if err != nil {
		t.Fatal(err)
	}
	key, _ := s.plan(box, kind, metric, graph.NodeID(q), shard, QueryParams{K: k}.resolved(metric))
	return key
}

// checkCache asserts the stored entry count and bytes, both on the cache and
// in the /metrics JSON and Prometheus views.
func checkCache(t *testing.T, s *Server, entries int, bytes int64) {
	t.Helper()
	if n, b := s.cache.Len(), s.cache.Bytes(); n != entries || b != bytes {
		t.Fatalf("cache holds %d entries of %d bytes, want %d of %d", n, b, entries, bytes)
	}
	h := s.Handler()
	var snap Snapshot
	_, raw := do(t, h, httptest.NewRequest("GET", "/metrics", nil))
	decodeInto(t, raw, &snap)
	if snap.Cache.Entries != entries || snap.Cache.Bytes != bytes {
		t.Fatalf("/metrics cache = %+v, want %d entries of %d bytes", snap.Cache, entries, bytes)
	}
	_, raw = do(t, h, httptest.NewRequest("GET", "/metrics?format=prometheus", nil))
	if want := "\npegasus_cache_bytes " + strconv.FormatInt(bytes, 10) + "\n"; !strings.Contains(string(raw), want) {
		t.Fatalf("prometheus exposition lacks %q", want)
	}
}

// rwrAnswerBytes is what a stored full-vector RWR or PHP answer for q
// holds: 8 B per supernode of q's shard plus 8 B for q's own score.
func rwrAnswerBytes(t *testing.T, s *Server, q uint32) int64 {
	t.Helper()
	be := s.current().be
	shard, err := be.shard(graph.NodeID(q))
	if err != nil {
		t.Fatal(err)
	}
	return 8 * int64(be.c.Machines[shard].Summary.NumSupernodes()+1)
}

func queryOK(t *testing.T, h http.Handler, path string, req any) QueryResponse {
	t.Helper()
	res, raw := postJSON(t, h, path, req)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, res.StatusCode, raw)
	}
	var resp QueryResponse
	decodeInto(t, raw, &resp)
	return resp
}

// nodesOnShard returns the first n nodes the server routes to shard.
func nodesOnShard(t *testing.T, s *Server, shard, n int) []uint32 {
	t.Helper()
	var out []uint32
	for q, l := range s.current().be.c.Assign {
		if int(l) == shard && len(out) < n {
			out = append(out, uint32(q))
		}
	}
	if len(out) < n {
		t.Fatalf("shard %d has %d nodes, want %d", shard, len(out), n)
	}
	return out
}

func TestColdTopKStoresOnlyRankedAnswer(t *testing.T) {
	s := freshServer(t, 0)
	h := s.Handler()
	const q, k = 9, 5
	top := queryOK(t, h, "/v1/query/topk", QueryRequest{Node: q, QueryParams: QueryParams{K: k}})
	if len(top.Top) != k || top.Cached {
		t.Fatalf("cold topk: %d entries, cached %v; want %d computed", len(top.Top), top.Cached, k)
	}
	topKey := keyOf(t, s, "topk", "rwr", q, k)
	checkCache(t, s, 1, int64(len(topKey)+16*k))

	// The score vector the ranking read was not stored: a full-vector query
	// on the same node computes it, and then it is stored.
	vec := queryOK(t, h, "/v1/query/rwr", QueryRequest{Node: q})
	if vec.Cached {
		t.Fatal("full-vector rwr after a topk reported cached: the topk stored its score vector")
	}
	for _, e := range top.Top {
		if e.Score != vec.Scores[e.Node] {
			t.Fatalf("topk score of node %d is %v, the vector's entry %v", e.Node, e.Score, vec.Scores[e.Node])
		}
	}
	vecKey := keyOf(t, s, "rwr", "rwr", q, 0)
	checkCache(t, s, 2, int64(len(topKey)+16*k+len(vecKey)+int(rwrAnswerBytes(t, s, q))))
}

func TestTopKReadsStoredVector(t *testing.T) {
	s := freshServer(t, 0)
	h := s.Handler()
	const q, k = 17, 4
	vec := queryOK(t, h, "/v1/query/rwr", QueryRequest{Node: q})
	top := queryOK(t, h, "/v1/query/topk?debug=1", QueryRequest{Node: q, QueryParams: QueryParams{K: k}})
	if names := spanNames(top.Trace); names["session.rwr"] != 0 || names["compute.rwr"] != 0 {
		t.Fatalf("topk after a full-vector rwr ran a second RWR: spans %v", names)
	}
	if top.Cached {
		t.Fatal("first topk reported cached: its ranked answer was not stored before")
	}
	for _, e := range top.Top {
		if e.Score != vec.Scores[e.Node] {
			t.Fatalf("topk score of node %d is %v, the vector's entry %v", e.Node, e.Score, vec.Scores[e.Node])
		}
	}
	checkCache(t, s, 2, int64(len(keyOf(t, s, "rwr", "rwr", q, 0))+int(rwrAnswerBytes(t, s, q))+
		len(keyOf(t, s, "topk", "rwr", q, k))+16*k))
}

// flightState reports whether key has a computation in flight and whether
// that computation's value will be stored.
func flightState(c *Cache, key string) (inFlight, store bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f, ok := sh.flights[key]
	return ok, ok && f.store
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFullVectorJoiningTopKFlightIsStored(t *testing.T) {
	s := freshServer(t, 1)
	h := s.Handler()
	const q, k = 23, 3
	vecKey := keyOf(t, s, "rwr", "rwr", q, 0)

	// Hold the only pool slot so the topk's RWR stays in flight.
	release := make(chan struct{})
	occupied := make(chan struct{})
	poolDone := make(chan struct{})
	go func() {
		defer close(poolDone)
		_ = s.pool.Run(context.Background(), func() error {
			close(occupied)
			<-release
			return nil
		})
	}()
	<-occupied

	topc := make(chan QueryResponse, 1)
	go func() {
		_, raw := postJSON(t, h, "/v1/query/topk", QueryRequest{Node: q, QueryParams: QueryParams{K: k}})
		var resp QueryResponse
		decodeInto(t, raw, &resp)
		topc <- resp
	}()
	waitUntil(t, "the topk's RWR is in flight", func() bool { in, _ := flightState(s.cache, vecKey); return in })
	if _, store := flightState(s.cache, vecKey); store {
		t.Fatal("the topk's own RWR flight is marked for storage")
	}

	vecc := make(chan QueryResponse, 1)
	go func() {
		_, raw := postJSON(t, h, "/v1/query/rwr", QueryRequest{Node: q})
		var resp QueryResponse
		decodeInto(t, raw, &resp)
		vecc <- resp
	}()
	waitUntil(t, "the full-vector rwr joins the flight", func() bool { _, st := flightState(s.cache, vecKey); return st })
	close(release)
	<-poolDone
	top, vec := <-topc, <-vecc
	if len(top.Top) != k || len(vec.Scores) == 0 {
		t.Fatalf("answers: %d top entries, %d scores", len(top.Top), len(vec.Scores))
	}
	if !vec.Cached {
		t.Error("the full-vector rwr did not share the topk's in-flight computation")
	}
	checkCache(t, s, 2, int64(len(vecKey)+int(rwrAnswerBytes(t, s, q))+len(keyOf(t, s, "topk", "rwr", q, k))+16*k))
	if again := queryOK(t, h, "/v1/query/rwr", QueryRequest{Node: q}); !again.Cached {
		t.Error("repeat full-vector rwr missed: the joined vector was not stored")
	}
}

func TestPageRankTopKComputesOncePerShard(t *testing.T) {
	s := freshServer(t, 0)
	h := s.Handler()
	// Two k values: the ranked-answer key of a pagerank topk is shard-scoped
	// too, so the second query must rank anew to need the vector.
	const k1, k2 = 6, 7
	nodes := nodesOnShard(t, s, 1, 2)
	first := queryOK(t, h, "/v1/query/topk?debug=1",
		QueryRequest{Node: nodes[0], QueryParams: QueryParams{K: k1, Metric: "pagerank"}})
	second := queryOK(t, h, "/v1/query/topk?debug=1",
		QueryRequest{Node: nodes[1], QueryParams: QueryParams{K: k2, Metric: "pagerank"}})
	if n := spanNames(first.Trace)["compute.pagerank"]; n != 1 {
		t.Fatalf("first pagerank topk ran %d PageRank computations, want 1", n)
	}
	if n := spanNames(second.Trace)["compute.pagerank"]; n != 0 {
		t.Fatalf("second pagerank topk on the same shard ran %d PageRank computations, want 0", n)
	}
	if second.Cached || len(first.Top) != k1 || len(second.Top) != k2 {
		t.Fatalf("second topk cached %v; top sizes %d and %d, want %d and %d",
			second.Cached, len(first.Top), len(second.Top), k1, k2)
	}
	for i := range first.Top {
		if first.Top[i] != second.Top[i] {
			t.Fatalf("pagerank topk differs between two nodes of one shard at rank %d: %v vs %v", i, first.Top[i], second.Top[i])
		}
	}
	checkCache(t, s, 3, int64(len(keyOf(t, s, "pagerank", "pagerank", nodes[0], 0))+8*s.current().be.numNodes()+
		len(keyOf(t, s, "topk", "pagerank", nodes[0], k1))+16*k1+
		len(keyOf(t, s, "topk", "pagerank", nodes[1], k2))+16*k2))
}

func TestPHPAndBatchTopKStoreOnlyRankedAnswers(t *testing.T) {
	s := freshServer(t, 0)
	h := s.Handler()
	const k = 10 // the default
	php := queryOK(t, h, "/v1/query/topk", QueryRequest{Node: 31, QueryParams: QueryParams{Metric: "php"}})
	if len(php.Top) != k {
		t.Fatalf("php topk: %d entries, want %d", len(php.Top), k)
	}
	want := int64(len(keyOf(t, s, "topk", "php", 31, k)) + 16*k)
	checkCache(t, s, 1, want)

	nodes := []uint32{40, 41, 42, 43, 41}
	res, raw := postJSON(t, h, "/v1/query/batch", BatchRequest{Kind: "topk", Nodes: nodes})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", res.StatusCode, raw)
	}
	var batch BatchResponse
	decodeInto(t, raw, &batch)
	for i, it := range batch.Items {
		if it.Error != "" || len(it.Top) != k {
			t.Fatalf("batch item %d: error %q, %d entries", i, it.Error, len(it.Top))
		}
	}
	for _, q := range nodes[:4] {
		want += int64(len(keyOf(t, s, "topk", "rwr", q, k)) + 16*k)
	}
	checkCache(t, s, 5, want)
}

func TestCacheNonStoringLookup(t *testing.T) {
	c := NewCache(64)
	ctx := context.Background()
	vec := func() (any, error) { return []float64{1, 2, 3}, nil }
	if _, st, err := c.getOrCompute(ctx, "k", false, vec); err != nil || st != CacheMiss {
		t.Fatalf("non-storing miss: (%v, %v)", st, err)
	}
	if n, b := c.Len(), c.Bytes(); n != 0 || b != 0 {
		t.Fatalf("non-storing miss stored %d entries of %d bytes", n, b)
	}
	if _, st, _ := c.GetOrCompute(ctx, "k", vec); st != CacheMiss {
		t.Fatalf("storing lookup after a non-storing one: status %v, want miss", st)
	}
	if n, b := c.Len(), c.Bytes(); n != 1 || b != 1+8*3 {
		t.Fatalf("stored %d entries of %d bytes, want 1 of %d", n, b, 1+8*3)
	}
	if _, st, _ := c.getOrCompute(ctx, "k", false, vec); st != CacheHit {
		t.Fatalf("non-storing lookup of a stored key: status %v, want hit", st)
	}
}

// TestCacheBytesFollowEviction checks the byte gauge against the entries
// actually resident after LRU eviction, and after a purge.
func TestCacheBytesFollowEviction(t *testing.T) {
	c := NewCache(cacheShardCount * 2)
	ctx := context.Background()
	for i := 0; i < 40*cacheShardCount; i++ {
		key := strconv.Itoa(i)
		var val any
		switch i % 3 {
		case 0:
			val = make([]float64, i%17)
		case 1:
			val = make([]int32, i%13)
		default:
			val = make([]NodeScore, i%11)
		}
		if _, _, err := c.GetOrCompute(ctx, key, func() (any, error) { return val, nil }); err != nil {
			t.Fatal(err)
		}
	}
	var resident int64
	for i := range c.shards {
		for el := c.shards[i].ll.Front(); el != nil; el = el.Next() {
			e := el.Value.(*cacheEntry)
			resident += entryBytes(e.key, e.val)
		}
	}
	if got := c.Bytes(); got != resident || got == 0 {
		t.Fatalf("Bytes() = %d, resident entries hold %d", got, resident)
	}
	c.Purge()
	if got := c.Bytes(); got != 0 {
		t.Fatalf("Bytes() = %d after purge, want 0", got)
	}
}

func TestCacheHitAllocatesNothing(t *testing.T) {
	c := NewCache(64)
	ctx := context.Background()
	fn := func() (any, error) { return []float64{1}, nil }
	const key = "g1|rwr|n5|r0.05,e1e-09,i1000"
	c.GetOrCompute(ctx, key, fn)
	if n := testing.AllocsPerRun(100, func() { c.GetOrCompute(ctx, key, fn) }); n != 0 {
		t.Fatalf("a cache hit allocates %v times, want 0", n)
	}
}
