package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pegasus/internal/gen"
	"pegasus/internal/graph"
)

// warmConfig is the shared 4-shard configuration of the warm-start tests;
// two servers built from it (with or without a cache dir) are twins.
func warmConfig(cacheDir string) Config {
	return Config{
		Shards:          4,
		PartitionMethod: "random",
		BudgetRatio:     0.5,
		Seed:            3,
		CacheDir:        cacheDir,
	}
}

func warmGraph() *graph.Graph {
	return gen.PlantedPartition(gen.SBMConfig{Nodes: 240, Communities: 4, AvgDegree: 8, MixingP: 0.05}, 11)
}

// mustServer builds a server or fails the test.
func mustServer(t testing.TB, g *graph.Graph, cfg Config) *Server {
	t.Helper()
	s, err := New(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// queryBody posts one query and returns the raw response body (fatal on a
// non-200).
func queryBody(t testing.TB, s *Server, path string, body map[string]any) []byte {
	t.Helper()
	res, raw := postJSON(t, s.Handler(), path, body)
	if res.StatusCode != 200 {
		t.Fatalf("%s: %d: %s", path, res.StatusCode, raw)
	}
	return raw
}

// TestWarmStartFromPopulatedCacheDir is the acceptance pin: a server booted
// over the cache dir a twin populated performs zero shard rebuilds (every
// shard is decoded from disk) and serves answers byte-identical to a cold
// build — on the raw JSON bodies of queries and the summary report.
func TestWarmStartFromPopulatedCacheDir(t *testing.T) {
	g := warmGraph()
	dir := t.TempDir()

	first := mustServer(t, g, warmConfig(dir))
	if bs := first.BootStats(); bs.Rebuilt != 4 || bs.Loaded != 0 {
		t.Fatalf("populating boot: rebuilt=%d loaded=%d, want 4/0", bs.Rebuilt, bs.Loaded)
	}

	warm := mustServer(t, g, warmConfig(dir))
	if bs := warm.BootStats(); bs.Loaded != 4 || bs.Rebuilt != 0 {
		t.Fatalf("warm boot: loaded=%d rebuilt=%d, want 4/0", bs.Loaded, bs.Rebuilt)
	}
	cold := mustServer(t, g, warmConfig("")) // in-memory twin

	for _, n := range []uint32{0, 7, 63, 128, 239} {
		for _, path := range []string{"/v1/query/rwr", "/v1/query/php", "/v1/query/topk"} {
			w := queryBody(t, warm, path, map[string]any{"node": n})
			c := queryBody(t, cold, path, map[string]any{"node": n})
			if !bytes.Equal(w, c) {
				t.Errorf("%s node %d: warm answer differs from cold:\n  warm: %s\n  cold: %s", path, n, w, c)
			}
		}
	}
	resW, rawW := do(t, warm.Handler(), httptest.NewRequest("GET", "/v1/summary/report", nil))
	resC, rawC := do(t, cold.Handler(), httptest.NewRequest("GET", "/v1/summary/report", nil))
	if resW.StatusCode != 200 || resC.StatusCode != 200 || !bytes.Equal(rawW, rawC) {
		t.Errorf("summary reports differ between warm and cold boots")
	}

	// The persist metrics section records the four disk hits.
	res, raw := do(t, warm.Handler(), httptest.NewRequest("GET", "/metrics", nil))
	if res.StatusCode != 200 {
		t.Fatalf("metrics: %d", res.StatusCode)
	}
	var snap Snapshot
	decodeInto(t, raw, &snap)
	if snap.Persist == nil {
		t.Fatal("metrics: no persist section on a cache-dir server")
	}
	if snap.Persist.Hits != 4 || snap.Persist.Misses != 0 {
		t.Errorf("persist metrics = %+v, want 4 hits, 0 misses", snap.Persist)
	}
	if snap.Persist.BytesRead == 0 {
		t.Error("persist metrics: bytes_read is 0 after a warm start")
	}
	// The in-memory twin serves no persist section at all.
	_, rawC = do(t, cold.Handler(), httptest.NewRequest("GET", "/metrics", nil))
	if strings.Contains(string(rawC), `"persist"`) {
		t.Error("metrics of a store-less server contain a persist section")
	}
}

// TestCorruptedCacheDirServesCorrectAnswers pins the corruption satellite
// end to end: a server booted from a deliberately mangled cache dir — one
// artifact bit-flipped, one truncated, one zero-length, one replaced by
// junk — silently rebuilds the damaged shards and serves answers
// byte-identical to a cold build.
func TestCorruptedCacheDirServesCorrectAnswers(t *testing.T) {
	g := warmGraph()
	dir := t.TempDir()
	mustServer(t, g, warmConfig(dir)) // populate

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".pgsum") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) != 4 {
		t.Fatalf("cache dir holds %d artifacts, want 4", len(files))
	}
	for i, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		switch i {
		case 0:
			raw[len(raw)/2] ^= 0x01 // single flipped bit mid-payload
		case 1:
			raw = raw[:len(raw)/2] // truncated
		case 2:
			raw = nil // zero-length
		case 3:
			raw = []byte("not an artifact at all") // junk
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	damaged := mustServer(t, g, warmConfig(dir))
	if bs := damaged.BootStats(); bs.Rebuilt != 4 || bs.Loaded != 0 {
		t.Fatalf("boot over corrupted dir: rebuilt=%d loaded=%d, want 4/0", bs.Rebuilt, bs.Loaded)
	}
	cold := mustServer(t, g, warmConfig(""))
	for _, n := range []uint32{1, 50, 101, 200} {
		d := queryBody(t, damaged, "/v1/query/rwr", map[string]any{"node": n})
		c := queryBody(t, cold, "/v1/query/rwr", map[string]any{"node": n})
		if !bytes.Equal(d, c) {
			t.Errorf("node %d: answer from corrupted-cache server differs from cold build", n)
		}
	}
	// The rebuild healed the directory: the next boot is fully warm again.
	healed := mustServer(t, g, warmConfig(dir))
	if bs := healed.BootStats(); bs.Loaded != 4 {
		t.Errorf("boot after healing: loaded=%d, want 4", bs.Loaded)
	}
}

// TestSummarizePersistsRebuiltShards: a hot rebuild writes the shards it
// rebuilds back to the cache dir, so a later boot with the new configuration
// is fully warm; the response carries the loaded/keyable fields.
func TestSummarizePersistsRebuiltShards(t *testing.T) {
	g := warmGraph()
	dir := t.TempDir()
	s := mustServer(t, g, warmConfig(dir))
	assign := assignOf(t, s)
	targets := partialTargets(assign, 0, 2)

	res, raw := postJSON(t, s.Handler(), "/v1/summarize", map[string]any{"targets": targets})
	if res.StatusCode != 200 {
		t.Fatalf("summarize: %d: %s", res.StatusCode, raw)
	}
	var sr SummarizeResponse
	decodeInto(t, raw, &sr)
	if sr.Rebuilt != 1 || sr.Reused != 3 || sr.Loaded != 0 {
		t.Fatalf("rebuilt=%d reused=%d loaded=%d, want 1/3/0", sr.Rebuilt, sr.Reused, sr.Loaded)
	}
	if !sr.Keyable {
		t.Error("keyable = false on a fingerprintable server config")
	}

	// A fresh boot with the post-rebuild configuration loads all four from
	// disk: three artifacts from the original boot, one persisted by the
	// summarize.
	cfg := warmConfig(dir)
	var tg []graph.NodeID
	for _, u := range targets {
		tg = append(tg, graph.NodeID(u))
	}
	cfg.Targets = tg
	warm := mustServer(t, g, cfg)
	if bs := warm.BootStats(); bs.Loaded != 4 || bs.Rebuilt != 0 {
		t.Errorf("boot with post-rebuild config: loaded=%d rebuilt=%d, want 4/0", bs.Loaded, bs.Rebuilt)
	}
}

// TestSummarizeNoopReportsLoadedZero: the warm-start fields compose with the
// established no-op semantics — everything reused in memory, nothing loaded.
func TestSummarizeNoopReportsLoadedZero(t *testing.T) {
	g := warmGraph()
	s := mustServer(t, g, warmConfig(t.TempDir()))
	res, raw := postJSON(t, s.Handler(), "/v1/summarize", map[string]any{})
	if res.StatusCode != 200 {
		t.Fatalf("summarize: %d: %s", res.StatusCode, raw)
	}
	var sr SummarizeResponse
	decodeInto(t, raw, &sr)
	if sr.Rebuilt != 0 || sr.Reused != 4 || sr.Loaded != 0 || !sr.Keyable {
		t.Errorf("noop: rebuilt=%d reused=%d loaded=%d keyable=%v, want 0/4/0/true",
			sr.Rebuilt, sr.Reused, sr.Loaded, sr.Keyable)
	}
}

// TestWarmStartUnderConcurrentTraffic is the -race integration pin: a server
// warm-starts from a populated cache dir, concurrent /v1/query/batch traffic
// hammers it while a /v1/summarize with changed targets lands mid-stream,
// and afterwards (a) reused shards kept their per-shard cache generation
// (their cached answers still hit), (b) the rebuilt shard recomputes, and
// (c) every answer is byte-identical to a cold-built twin of the final
// configuration.
func TestWarmStartUnderConcurrentTraffic(t *testing.T) {
	g := warmGraph()
	dir := t.TempDir()
	mustServer(t, g, warmConfig(dir)) // populate

	s := mustServer(t, g, warmConfig(dir))
	if bs := s.BootStats(); bs.Loaded != 4 {
		t.Fatalf("warm boot: loaded=%d, want 4", bs.Loaded)
	}
	h := s.Handler()
	assign := assignOf(t, s)
	n := len(assign)
	nodeChanged := nodeOnShard(t, assign, 0)
	nodeKept := nodeOnShard(t, assign, 1)

	// Warm the query cache on a shard the rebuild will not touch and on the
	// shard it rebuilds: (a) needs the first entry kept, (b) the second
	// dropped.
	queryBody(t, s, "/v1/query/rwr", map[string]any{"node": nodeKept})
	queryBody(t, s, "/v1/query/rwr", map[string]any{"node": nodeChanged})

	const batchers = 4
	stop := make(chan struct{})
	errc := make(chan error, batchers+1)
	var wg sync.WaitGroup
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
				nodes := []uint32{
					uint32((b*13 + i*5) % n),
					uint32((b*31 + i*11) % n),
				}
				// Keep nodeChanged out of the traffic: an answer the rebuilt
				// shard computes after the swap is a fresh cache entry that
				// (b) would mistake for a stale one.
				for j, u := range nodes {
					if u == nodeChanged {
						nodes[j] = (u + 1) % uint32(n)
					}
				}
				res, raw := postJSON(t, h, "/v1/query/batch", map[string]any{"kind": "rwr", "nodes": nodes})
				if res.StatusCode != 200 {
					errc <- fmt.Errorf("batch: %d: %s", res.StatusCode, raw)
					return
				}
				var br BatchResponse
				decodeInto(t, raw, &br)
				for _, it := range br.Items {
					if it.Error == "" && len(it.Scores) != n {
						errc <- fmt.Errorf("node %d: %d scores, want %d", it.Node, len(it.Scores), n)
						return
					}
				}
			}
		}(b)
	}

	// Mid-traffic reconfiguration confined to part 0.
	targets := partialTargets(assign, 0, 2)
	res, raw := postJSON(t, h, "/v1/summarize", map[string]any{"targets": targets})
	if res.StatusCode != 200 {
		t.Fatalf("summarize under traffic: %d: %s", res.StatusCode, raw)
	}
	var sr SummarizeResponse
	decodeInto(t, raw, &sr)
	if sr.Rebuilt != 1 || sr.Reused != 3 {
		t.Errorf("summarize under traffic: rebuilt=%d reused=%d, want 1/3", sr.Rebuilt, sr.Reused)
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// (a) Reused shard kept its cache generation: the pre-rebuild answer
	// still hits.
	var qr QueryResponse
	decodeInto(t, queryBody(t, s, "/v1/query/rwr", map[string]any{"node": nodeKept}), &qr)
	if !qr.Cached {
		t.Error("reused shard lost its cached answer across the warm rebuild")
	}
	// (b) The rebuilt shard recomputes rather than serving a stale entry.
	decodeInto(t, queryBody(t, s, "/v1/query/rwr", map[string]any{"node": nodeChanged}), &qr)
	if qr.Cached {
		t.Error("rebuilt shard served a cached answer it should have dropped")
	}

	// (c) Byte-identical answers versus a cold-built twin of the final
	// configuration. Scores and top lists must match exactly; the envelope
	// fields (generation, cached) legitimately differ, so compare the
	// decoded payloads.
	cfg := warmConfig("")
	for _, u := range targets {
		cfg.Targets = append(cfg.Targets, graph.NodeID(u))
	}
	twin := mustServer(t, g, cfg)
	for _, node := range []uint32{uint32(nodeChanged), uint32(nodeKept), 5, 77, 200} {
		var a, b QueryResponse
		decodeInto(t, queryBody(t, s, "/v1/query/rwr", map[string]any{"node": node}), &a)
		decodeInto(t, queryBody(t, twin, "/v1/query/rwr", map[string]any{"node": node}), &b)
		if len(a.Scores) != len(b.Scores) {
			t.Fatalf("node %d: score lengths differ", node)
		}
		for j := range a.Scores {
			if a.Scores[j] != b.Scores[j] {
				t.Fatalf("node %d: score[%d] differs between warm-rebuilt server and cold twin", node, j)
			}
		}
	}
}
