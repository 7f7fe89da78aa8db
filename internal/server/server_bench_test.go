package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"pegasus/internal/gen"
)

// The load-smoke benchmarks measure end-to-end serving latency of an RWR
// query through the full handler path (routing, pool, cache, JSON), giving
// future serving PRs a perf baseline:
//
//	go test -bench 'BenchmarkServe' -benchtime 2s ./internal/server/
var (
	benchOnce sync.Once
	benchSrv  *Server
	benchErr  error
)

func benchServer(b *testing.B) *Server {
	b.Helper()
	benchOnce.Do(func() {
		g := gen.PlantedPartition(gen.SBMConfig{
			Nodes: 1000, Communities: 8, AvgDegree: 10, MixingP: 0.05,
		}, 21)
		benchSrv, benchErr = New(context.Background(), g, Config{
			Shards:          2,
			PartitionMethod: "random",
			BudgetRatio:     0.4,
			Seed:            21,
		})
	})
	if benchErr != nil {
		b.Fatalf("build bench server: %v", benchErr)
	}
	return benchSrv
}

func benchQuery(b *testing.B, h http.Handler, path string, req QueryRequest) {
	b.Helper()
	body, _ := json.Marshal(req)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
}

// BenchmarkServeRWRUncached purges the cache every iteration: each query
// pays the full power iteration on the owning shard's summary. cache-B
// reports the bytes one cold RWR leaves stored — its key and its compact
// answer, one score per supernode of the shard plus q's own.
func BenchmarkServeRWRUncached(b *testing.B) {
	s := benchServer(b)
	h := s.Handler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.cache.Purge()
		benchQuery(b, h, "/v1/query/rwr", QueryRequest{Node: 42})
	}
	b.StopTimer()
	b.ReportMetric(float64(s.cache.Bytes()), "cache-B")
}

// BenchmarkServeHOPUncached purges the cache every iteration: each query
// pays one BFS over the owning shard's supernodes. cache-B reports the
// bytes one cold HOP leaves stored — its key and its compact answer, one
// distance per supernode plus q's own, a byte each.
func BenchmarkServeHOPUncached(b *testing.B) {
	s := benchServer(b)
	h := s.Handler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.cache.Purge()
		benchQuery(b, h, "/v1/query/hop", QueryRequest{Node: 42})
	}
	b.StopTimer()
	b.ReportMetric(float64(s.cache.Bytes()), "cache-B")
}

// BenchmarkServeTopKUncached purges the cache every iteration and asks for
// the default top-10 by RWR: each query pays the power iteration and the
// ranking. cache-B reports the bytes one cold top-k leaves stored — its
// ranked answer and key, not the |V|-entry score vector it ranked.
func BenchmarkServeTopKUncached(b *testing.B) {
	s := benchServer(b)
	h := s.Handler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.cache.Purge()
		benchQuery(b, h, "/v1/query/topk", QueryRequest{Node: 42})
	}
	b.StopTimer()
	b.ReportMetric(float64(s.cache.Bytes()), "cache-B")
}

// BenchmarkServeRWRCached repeats one warm query: the cost is routing, cache
// lookup, the expansion of the stored compact answer to |V| scores, and
// JSON encoding.
func BenchmarkServeRWRCached(b *testing.B) {
	s := benchServer(b)
	h := s.Handler()
	benchQuery(b, h, "/v1/query/rwr", QueryRequest{Node: 42}) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchQuery(b, h, "/v1/query/rwr", QueryRequest{Node: 42})
	}
}

// BenchmarkServeRWRCachedParallel hammers one warm query from all procs —
// the contention profile of a hot key.
func BenchmarkServeRWRCachedParallel(b *testing.B) {
	s := benchServer(b)
	h := s.Handler()
	benchQuery(b, h, "/v1/query/rwr", QueryRequest{Node: 42}) // warm
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			benchQuery(b, h, "/v1/query/rwr", QueryRequest{Node: 42})
		}
	})
}
