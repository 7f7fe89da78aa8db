package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"pegasus/internal/gen"
)

// fuzzPaths are the endpoints FuzzHandlers posts to, picked by the first
// input byte.
var fuzzPaths = []string{
	"/v1/query/rwr", "/v1/query/hop", "/v1/query/php", "/v1/query/pagerank",
	"/v1/query/topk", "/v1/query/batch",
}

var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
	fuzzErr  error
)

// fuzzServer is a small 2-shard server shared by every fuzz input. A short
// query timeout bounds inputs that ask for huge iteration counts (they get
// a 504), and a small cache bounds what the inputs leave stored.
func fuzzServer(t testing.TB) *Server {
	t.Helper()
	fuzzOnce.Do(func() {
		g := gen.PlantedPartition(gen.SBMConfig{Nodes: 120, Communities: 3, AvgDegree: 6, MixingP: 0.05}, 5)
		fuzzSrv, fuzzErr = New(context.Background(), g, Config{
			Shards:          2,
			PartitionMethod: "random",
			BudgetRatio:     0.4,
			Seed:            5,
			CacheEntries:    64,
			BatchMax:        16,
			QueryTimeout:    200 * time.Millisecond,
		})
	})
	if fuzzErr != nil {
		t.Fatal(fuzzErr)
	}
	return fuzzSrv
}

// FuzzHandlers posts arbitrary bodies to every query endpoint and to the
// batch endpoint of a small sharded server. No body may panic a handler,
// every status must be one API.md documents for the path (200, 400, or 504
// for a computation that outlives the query timeout), and every 200 body
// must decode strictly into the endpoint's response type with the answer
// field of its kind. The seed corpus holds valid requests of every kind
// and the error probes of the verify notes: malformed JSON, unknown
// fields, out-of-range nodes and invalid parameters.
//
//	go test ./internal/server -run '^$' -fuzz '^FuzzHandlers$' -fuzztime 10s
func FuzzHandlers(f *testing.F) {
	for _, seed := range []struct {
		path int
		body string
	}{
		{0, `{"node":5}`},
		{1, `{"node":119}`},
		{2, `{"node":7,"c":0.5,"eps":1e-6}`},
		{3, `{"node":3,"damping":0.9,"max_iter":20}`},
		{4, `{"node":5,"k":3}`},
		{4, `{"node":8,"k":1000,"metric":"php"}`},
		{4, `{"node":8,"metric":"pagerank"}`},
		{5, `{"kind":"rwr","nodes":[1,2,2,119]}`},
		{5, `{"kind":"topk","nodes":[4,500],"k":2,"metric":"php"}`},
		{5, `{"kind":"hop","nodes":[]}`},
		{5, `{"kind":"bogus","nodes":[1]}`},
		{0, `{"node":5`},
		{0, `{"node":5,"bogus":1}`},
		{0, `{"node":120}`},
		{0, `{"node":-1}`},
		{0, `{"node":5,"restart":0}`},
		{0, `{"node":5,"eps":-1}`},
		{2, `{"node":5,"max_iter":-3}`},
		{4, `{"node":5,"k":1001}`},
		{4, `{"node":5,"metric":"hop"}`},
		{0, `{"node":5,"max_iter":1000000000,"eps":1e-300}`},
		{1, `null`},
		{1, ``},
	} {
		f.Add(byte(seed.path), []byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, which byte, body []byte) {
		s := fuzzServer(t)
		path := fuzzPaths[int(which)%len(fuzzPaths)]
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusGatewayTimeout:
			var e errorResponse
			if err := strictDecode(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("%s %q: status %d with body %q (%v)", path, body, rec.Code, rec.Body.Bytes(), err)
			}
			return
		default:
			t.Fatalf("%s %q: undocumented status %d: %s", path, body, rec.Code, rec.Body.Bytes())
		}
		if path == "/v1/query/batch" {
			var resp BatchResponse
			if err := strictDecode(rec.Body.Bytes(), &resp); err != nil || len(resp.Items) == 0 {
				t.Fatalf("%s %q: 200 body %q does not decode to a batch (%v)", path, body, rec.Body.Bytes(), err)
			}
			for _, it := range resp.Items {
				if it.Error == "" && !hasAnswer(resp.Kind, it.Scores, it.Dist, it.Top) {
					t.Fatalf("%s %q: item %+v has neither an error nor a %s answer", path, body, it, resp.Kind)
				}
			}
			return
		}
		var resp QueryResponse
		if err := strictDecode(rec.Body.Bytes(), &resp); err != nil || !hasAnswer(resp.Kind, resp.Scores, resp.Dist, resp.Top) {
			t.Fatalf("%s %q: 200 body %q does not decode to a %s answer (%v)", path, body, rec.Body.Bytes(), resp.Kind, err)
		}
	})
}

// strictDecode decodes one JSON value, rejecting unknown fields.
func strictDecode(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// hasAnswer reports whether a decoded answer carries the field of its kind.
func hasAnswer(kind string, scores []float64, dist []int32, top []NodeScore) bool {
	switch kind {
	case "hop":
		return len(dist) > 0
	case "topk":
		return len(top) > 0
	case "rwr", "php", "pagerank":
		return len(scores) > 0
	}
	return false
}
