package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"pegasus/internal/core"
	"pegasus/internal/gen"
	"pegasus/internal/graph"
	"pegasus/internal/persist"
)

// incrementalServer builds a fresh 4-shard server for rebuild tests (never
// the shared one: these tests mutate backend state).
func incrementalServer(t testing.TB) *Server {
	t.Helper()
	g := gen.PlantedPartition(gen.SBMConfig{Nodes: 240, Communities: 4, AvgDegree: 8, MixingP: 0.05}, 11)
	s, err := New(context.Background(), g, Config{
		Shards:          4,
		PartitionMethod: "random",
		BudgetRatio:     0.5,
		Seed:            3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// assignOf returns the node→shard table of a sharded test server.
func assignOf(t testing.TB, s *Server) []uint32 {
	t.Helper()
	be := s.current().be
	if be.numShards() < 2 {
		t.Fatal("test server is not sharded")
	}
	return be.c.Assign
}

// partialTargets returns a target list covering every node except every
// mod-th member of the given shard's part — a change whose resolved target
// set differs on exactly that shard. Different mod values give different
// resolved sets for the same shard, so consecutive rebuilds alternating
// mods each stay 1-shard changes.
func partialTargets(assign []uint32, shard uint32, mod int) []uint32 {
	var targets []uint32
	inPart := 0
	for u := range assign {
		if assign[u] == shard {
			inPart++
			if inPart%mod == 0 {
				continue
			}
		}
		targets = append(targets, uint32(u))
	}
	return targets
}

// nodeOnShard returns some node routed to the given shard.
func nodeOnShard(t testing.TB, assign []uint32, shard uint32) uint32 {
	t.Helper()
	for u, l := range assign {
		if l == shard {
			return uint32(u)
		}
	}
	t.Fatalf("no node on shard %d", shard)
	return 0
}

// TestSummarizeIncrementalReuse is the serving-layer acceptance test: a
// targets change confined to one part rebuilds exactly that shard, the
// response reports rebuilt/reused, cached answers on reused shards survive
// the rebuild (including ranked top-k entries), and answers on the rebuilt
// shard are recomputed.
func TestSummarizeIncrementalReuse(t *testing.T) {
	s := incrementalServer(t)
	h := s.Handler()
	assign := assignOf(t, s)
	changed, kept := uint32(0), uint32(1)
	nodeChanged := nodeOnShard(t, assign, changed)
	nodeKept := nodeOnShard(t, assign, kept)

	// Warm the cache on both shards: plain RWR plus a ranked top-k answer.
	for _, n := range []uint32{nodeChanged, nodeKept} {
		res, raw := postJSON(t, h, "/v1/query/rwr", map[string]any{"node": n})
		if res.StatusCode != 200 {
			t.Fatalf("warm rwr: %d: %s", res.StatusCode, raw)
		}
		res, raw = postJSON(t, h, "/v1/query/topk", map[string]any{"node": n, "k": 5})
		if res.StatusCode != 200 {
			t.Fatalf("warm topk: %d: %s", res.StatusCode, raw)
		}
	}

	res, raw := postJSON(t, h, "/v1/summarize",
		map[string]any{"targets": partialTargets(assign, changed, 2)})
	if res.StatusCode != 200 {
		t.Fatalf("summarize: %d: %s", res.StatusCode, raw)
	}
	var sr SummarizeResponse
	decodeInto(t, raw, &sr)
	if sr.Rebuilt != 1 || sr.Reused != 3 {
		t.Fatalf("rebuilt=%d reused=%d, want 1/3", sr.Rebuilt, sr.Reused)
	}
	if sr.Generation != 2 {
		t.Errorf("generation = %d, want 2", sr.Generation)
	}

	// Reused shard: both the score vector and the ranked answer still hit.
	var qr QueryResponse
	res, raw = postJSON(t, h, "/v1/query/rwr", map[string]any{"node": nodeKept})
	decodeInto(t, raw, &qr)
	if res.StatusCode != 200 || !qr.Cached {
		t.Errorf("rwr on reused shard after rebuild: status %d cached %v, want 200 cached", res.StatusCode, qr.Cached)
	}
	res, raw = postJSON(t, h, "/v1/query/topk", map[string]any{"node": nodeKept, "k": 5})
	decodeInto(t, raw, &qr)
	if res.StatusCode != 200 || !qr.Cached {
		t.Errorf("topk on reused shard after rebuild: status %d cached %v, want 200 cached", res.StatusCode, qr.Cached)
	}
	// Rebuilt shard: the old entry is unreachable; the query recomputes.
	res, raw = postJSON(t, h, "/v1/query/rwr", map[string]any{"node": nodeChanged})
	decodeInto(t, raw, &qr)
	if res.StatusCode != 200 {
		t.Fatalf("rwr on rebuilt shard: %d: %s", res.StatusCode, raw)
	}
	if qr.Cached {
		t.Error("rwr on the rebuilt shard served a stale cache entry")
	}

	// Metrics reflect the rebuild.
	res, raw = do(t, h, httptest.NewRequest("GET", "/metrics", nil))
	if res.StatusCode != 200 {
		t.Fatalf("metrics: %d", res.StatusCode)
	}
	var snap Snapshot
	decodeInto(t, raw, &snap)
	if snap.Rebuild.Count != 1 || snap.Rebuild.ShardsRebuilt != 1 || snap.Rebuild.ShardsReused != 3 {
		t.Errorf("rebuild metrics = %+v, want count 1, rebuilt 1, reused 3", snap.Rebuild)
	}
}

// TestSummarizeMinimalTargetsRebuildsOneShard pins the doc.go/API.md
// quick-start: POSTing a couple of targets that live in one part — without
// enumerating the rest of the graph — rebuilds exactly that shard, because
// parts the request does not touch keep their whole-part personalization.
func TestSummarizeMinimalTargetsRebuildsOneShard(t *testing.T) {
	s := incrementalServer(t)
	h := s.Handler()
	assign := assignOf(t, s)
	var targets []uint32
	for u, l := range assign {
		if l == 3 && len(targets) < 2 {
			targets = append(targets, uint32(u))
		}
	}
	res, raw := postJSON(t, h, "/v1/summarize", map[string]any{"targets": targets})
	if res.StatusCode != 200 {
		t.Fatalf("summarize: %d: %s", res.StatusCode, raw)
	}
	var sr SummarizeResponse
	decodeInto(t, raw, &sr)
	if sr.Rebuilt != 1 || sr.Reused != 3 {
		t.Errorf("minimal targets: rebuilt=%d reused=%d, want 1/3", sr.Rebuilt, sr.Reused)
	}
}

// TestSummarizeNoopAllReused: a summarize request that changes nothing
// reports reused == m and rebuilds no shard (the generation still advances
// — a rebuild happened, even if it cost nothing).
func TestSummarizeNoopAllReused(t *testing.T) {
	s := incrementalServer(t)
	h := s.Handler()
	res, raw := postJSON(t, h, "/v1/summarize", map[string]any{})
	if res.StatusCode != 200 {
		t.Fatalf("noop summarize: %d: %s", res.StatusCode, raw)
	}
	var sr SummarizeResponse
	decodeInto(t, raw, &sr)
	if sr.Rebuilt != 0 || sr.Reused != 4 {
		t.Errorf("noop: rebuilt=%d reused=%d, want 0/4", sr.Rebuilt, sr.Reused)
	}
	if sr.Generation != 2 {
		t.Errorf("generation = %d, want 2", sr.Generation)
	}
}

// TestSummarizeSingleShardReuse: the unsharded server is a 1-shard cluster
// for reuse purposes — a no-op, or the same target set reordered or with a
// repeated node, reuses the summary; a targets change rebuilds it.
func TestSummarizeSingleShardReuse(t *testing.T) {
	g := gen.PlantedPartition(gen.SBMConfig{Nodes: 150, Communities: 3, AvgDegree: 8, MixingP: 0.05}, 12)
	s, err := New(context.Background(), g, Config{BudgetRatio: 0.5, Seed: 4, Targets: []graph.NodeID{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, tc := range []struct {
		name    string
		body    map[string]any
		rebuilt int
	}{
		{"noop", map[string]any{}, 0},
		{"reordered targets", map[string]any{"targets": []uint32{3, 1, 2}}, 0},
		{"repeated target", map[string]any{"targets": []uint32{2, 1, 3, 3}}, 0},
		{"targets change", map[string]any{"targets": []uint32{1, 2}}, 1},
	} {
		var sr SummarizeResponse
		_, raw := postJSON(t, h, "/v1/summarize", tc.body)
		decodeInto(t, raw, &sr)
		if sr.Rebuilt != tc.rebuilt || sr.Reused != 1-tc.rebuilt {
			t.Errorf("%s: rebuilt=%d reused=%d, want %d/%d", tc.name, sr.Rebuilt, sr.Reused, tc.rebuilt, 1-tc.rebuilt)
		}
	}
}

// TestUnshardedMatchesDirectBuild: the unsharded server builds its one
// shard personalized to V when untargeted and to the sorted, deduplicated
// target set otherwise; both must encode to the same bytes as a direct
// core build on the configured targets (T = V weighs every node like
// T = ∅, and the weights depend on the target set, not the list).
func TestUnshardedMatchesDirectBuild(t *testing.T) {
	g := gen.BarabasiAlbert(600, 4, 3)
	for _, targets := range [][]graph.NodeID{nil, {401, 17, 255, 17, 3}} {
		s, err := New(context.Background(), g, Config{BudgetRatio: 0.5, Seed: 3, BuildWorkers: 2, Targets: targets})
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Summarize(g, core.Config{Targets: targets, Seed: 3, BudgetBits: 0.5 * g.SizeBits()})
		if err != nil {
			t.Fatal(err)
		}
		want, err := persist.EncodeBytes(persist.Artifact{Summary: res.Summary})
		if err != nil {
			t.Fatal(err)
		}
		got, err := persist.EncodeBytes(persist.Artifact{Summary: s.current().be.c.Machines[0].Summary})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("targets %v: unsharded server artifact (%d bytes) differs from the direct build (%d bytes)", targets, len(got), len(want))
		}
	}
}

// TestBatchQueriesRacingPartialRebuild hammers the batch endpoint while
// partial rebuilds (each changing one part's targets) swap the backend —
// the tentpole's hot path under -race. Every batch must be coherent:
// 200 responses, every item either a valid result or a per-item error.
func TestBatchQueriesRacingPartialRebuild(t *testing.T) {
	s := incrementalServer(t)
	h := s.Handler()
	assign := assignOf(t, s)
	n := len(assign)

	const rebuilds = 4
	const batchers = 4
	stop := make(chan struct{})
	errc := make(chan error, batchers+rebuilds)
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
					uint32((b*17 + i*3) % n),
					uint32((b*29 + i*7) % n),
					uint32((b*41 + i*11) % n),
				}
				res, raw := postJSON(t, h, "/v1/query/batch",
					map[string]any{"kind": "rwr", "nodes": nodes})
				if res.StatusCode != 200 {
					errc <- fmt.Errorf("batch during rebuild: %d: %s", res.StatusCode, raw)
					return
				}
				var br BatchResponse
				decodeInto(t, raw, &br)
				for _, it := range br.Items {
					if it.Error == "" && len(it.Scores) != n {
						errc <- fmt.Errorf("item for node %d: %d scores, want %d", it.Node, len(it.Scores), n)
						return
					}
				}
			}
		}(b)
	}

	for r := 0; r < rebuilds; r++ {
		// Alternate two different target sets confined to part 0, so every
		// rebuild is partial (rebuilt == 1) and actually flips the backend.
		res, raw := postJSON(t, h, "/v1/summarize",
			map[string]any{"targets": partialTargets(assign, 0, 2+r%2)})
		if res.StatusCode != 200 {
			errc <- fmt.Errorf("rebuild %d: %d: %s", r, res.StatusCode, raw)
			continue
		}
		var sr SummarizeResponse
		decodeInto(t, raw, &sr)
		if sr.Rebuilt != 1 {
			errc <- fmt.Errorf("rebuild %d rebuilt %d shards, want 1", r, sr.Rebuilt)
		}
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestRebuildReusesLabelsAndSessions: a one-shard rebuild takes the
// node→shard labels from the previous backend — the same slice, not a second
// partition run — and every transplanted machine keeps the query session
// (weighted degrees, self-loop weights, lane layout) made for it, while the
// rebuilt shard gets a session of its own.
func TestRebuildReusesLabelsAndSessions(t *testing.T) {
	s := incrementalServer(t)
	old := s.current().be
	assign := assignOf(t, s)
	const changed = 2
	res, raw := postJSON(t, s.Handler(), "/v1/summarize",
		map[string]any{"targets": partialTargets(assign, changed, 2)})
	if res.StatusCode != 200 {
		t.Fatalf("summarize: %d: %s", res.StatusCode, raw)
	}
	be := s.current().be
	if be == old {
		t.Fatal("rebuild did not swap the backend")
	}
	if &be.c.Assign[0] != &old.c.Assign[0] {
		t.Error("rebuild partitioned again: the new Assign is not the previous backend's slice")
	}
	for i := range be.c.Machines {
		reused := be.c.Machines[i] == old.c.Machines[i]
		if reused != (i != changed) {
			t.Fatalf("shard %d: transplanted %v, want %v", i, reused, i != changed)
		}
		if same := be.sessions[i] == old.sessions[i]; same != reused {
			t.Errorf("shard %d: session carried over %v, want %v", i, same, reused)
		}
	}
}
