package distributed

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"pegasus/internal/core"
	"pegasus/internal/gen"
	"pegasus/internal/graph"
	"pegasus/internal/persist"
)

// persistTestSetup builds the shared fixtures of the store-integration
// tests: a 4-part graph, a keyed summarizer config, and a fresh store.
func persistTestSetup(t *testing.T) (*graph.Graph, []uint32, core.Config, string, *persist.Store) {
	t.Helper()
	g := gen.PlantedPartition(gen.SBMConfig{Nodes: 160, Communities: 4, AvgDegree: 8, MixingP: 0.05}, 5)
	labels := make([]uint32, g.NumNodes())
	for u := range labels {
		labels[u] = uint32(u % 4)
	}
	cfg := core.Config{Seed: 9}
	key, ok := cfg.ContentKey()
	if !ok {
		t.Fatal("config unexpectedly unkeyable")
	}
	st, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return g, labels, cfg, key, st
}

func writeAll(t *testing.T, c *Cluster) [][]byte {
	t.Helper()
	out := make([][]byte, len(c.Machines))
	for i, m := range c.Machines {
		var b bytes.Buffer
		if err := m.Summary.Write(&b); err != nil {
			t.Fatal(err)
		}
		out[i] = b.Bytes()
	}
	return out
}

// TestClusterBuildPersistsAndWarmLoads: a keyed build with a store files one
// artifact per shard; a second build over the same store decodes every shard
// (zero summarizations) and the loaded summaries are byte-identical to the
// built ones.
func TestClusterBuildPersistsAndWarmLoads(t *testing.T) {
	g, labels, cfg, key, st := persistTestSetup(t)
	budget := 0.5 * g.SizeBits()
	sum := PegasusSummarizer(cfg)

	cold, stats, err := BuildSummaryClusterCtx(context.Background(), g, labels, 4, budget, sum,
		BuildOpts{ConfigKey: key, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rebuilt != 4 || stats.Loaded != 0 {
		t.Fatalf("cold build: rebuilt=%d loaded=%d, want 4/0", stats.Rebuilt, stats.Loaded)
	}
	keys, err := st.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 {
		t.Fatalf("store holds %d artifacts after the build, want 4", len(keys))
	}
	for i, k := range cold.Keys {
		if _, err := st.Path(k); err != nil {
			t.Fatalf("shard %d key %q not storable: %v", i, k, err)
		}
	}

	warm, stats, err := BuildSummaryClusterCtx(context.Background(), g, labels, 4, budget, sum,
		BuildOpts{ConfigKey: key, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Loaded != 4 || stats.Rebuilt != 0 || stats.Reused != 0 {
		t.Fatalf("warm build: loaded=%d rebuilt=%d reused=%d, want 4/0/0", stats.Loaded, stats.Rebuilt, stats.Reused)
	}
	for i := range stats.LoadedShards {
		if !stats.LoadedShards[i] {
			t.Errorf("LoadedShards[%d] = false on a fully warm build", i)
		}
	}
	cw, ww := writeAll(t, cold), writeAll(t, warm)
	for i := range cw {
		if !bytes.Equal(cw[i], ww[i]) {
			t.Errorf("shard %d: disk-loaded summary differs from the built one", i)
		}
	}
}

// TestPrevTransplantBeatsStore: a shard satisfiable from Prev must be
// transplanted in memory, not re-decoded from disk — the store stays cold.
func TestPrevTransplantBeatsStore(t *testing.T) {
	g, labels, cfg, key, st := persistTestSetup(t)
	budget := 0.5 * g.SizeBits()
	sum := PegasusSummarizer(cfg)

	prev, _, err := BuildSummaryClusterCtx(context.Background(), g, labels, 4, budget, sum,
		BuildOpts{ConfigKey: key, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	hitsBefore := st.Stats().Hits
	next, stats, err := BuildSummaryClusterCtx(context.Background(), g, labels, 4, budget, sum,
		BuildOpts{ConfigKey: key, Store: st, Prev: prev})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reused != 4 || stats.Loaded != 0 {
		t.Fatalf("reused=%d loaded=%d, want 4/0", stats.Reused, stats.Loaded)
	}
	if got := st.Stats().Hits; got != hitsBefore {
		t.Errorf("store hits went %d -> %d; Prev transplants must not touch disk", hitsBefore, got)
	}
	for i := range next.Machines {
		if next.Machines[i] != prev.Machines[i] {
			t.Errorf("shard %d: not the same machine pointer", i)
		}
	}
}

// TestCorruptArtifactFallsBackToRebuild: damaging one shard's artifact —
// flip, truncation, wrong magic, zero length — demotes exactly that shard
// to a rebuild, the result is bit-identical to a clean build, and the
// rebuild's write-back heals the file.
func TestCorruptArtifactFallsBackToRebuild(t *testing.T) {
	g, labels, cfg, key, st := persistTestSetup(t)
	budget := 0.5 * g.SizeBits()
	sum := PegasusSummarizer(cfg)

	cold, _, err := BuildSummaryClusterCtx(context.Background(), g, labels, 4, budget, sum,
		BuildOpts{ConfigKey: key, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	want := writeAll(t, cold)

	corruptions := []struct {
		name string
		mut  func(raw []byte) []byte
	}{
		{"flipped-byte", func(raw []byte) []byte { raw[len(raw)/2] ^= 0x20; return raw }},
		{"truncated", func(raw []byte) []byte { return raw[:len(raw)/3] }},
		{"wrong-magic", func(raw []byte) []byte { copy(raw, "JUNK"); return raw }},
		{"zero-length", func([]byte) []byte { return nil }},
	}
	for shard, c := range corruptions {
		path, err := st.Path(cold.Keys[shard])
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, c.mut(raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	warm, stats, err := BuildSummaryClusterCtx(context.Background(), g, labels, 4, budget, sum,
		BuildOpts{ConfigKey: key, Store: st})
	if err != nil {
		t.Fatalf("build over a corrupted store: %v", err)
	}
	if stats.Rebuilt != 4 || stats.Loaded != 0 {
		t.Fatalf("all four artifacts were corrupted: rebuilt=%d loaded=%d, want 4/0", stats.Rebuilt, stats.Loaded)
	}
	got := writeAll(t, warm)
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Errorf("shard %d: rebuild over corrupt store differs from clean build", i)
		}
	}
	// The write-back healed every file: the next build is fully warm.
	healed, stats, err := BuildSummaryClusterCtx(context.Background(), g, labels, 4, budget, sum,
		BuildOpts{ConfigKey: key, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Loaded != 4 {
		t.Fatalf("after healing: loaded=%d, want 4", stats.Loaded)
	}
	got = writeAll(t, healed)
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Errorf("shard %d: healed artifact differs from clean build", i)
		}
	}
}

// TestUnkeyableBuildSkipsStore pins the satellite fix: a build whose config
// cannot be fingerprinted (no ConfigKey — e.g. a custom Threshold policy)
// must not write artifacts at all, because they would be filed under no
// reachable name.
func TestUnkeyableBuildSkipsStore(t *testing.T) {
	g, labels, cfg, _, st := persistTestSetup(t)
	budget := 0.5 * g.SizeBits()
	// A custom threshold policy makes core.Config.ContentKey bail; callers
	// then pass an empty ConfigKey, exactly as pegasus.BuildSummaryClusterIncremental does.
	unkeyable := cfg
	unkeyable.Threshold = core.FixedSchedule{}
	if _, ok := unkeyable.ContentKey(); ok {
		t.Fatal("config with custom Threshold should be unkeyable")
	}
	c, stats, err := BuildSummaryClusterCtx(context.Background(), g, labels, 4, budget,
		PegasusSummarizer(unkeyable), BuildOpts{ConfigKey: "", Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if c.Keys != nil {
		t.Errorf("unkeyable build recorded keys %v", c.Keys)
	}
	if stats.Loaded != 0 || stats.Rebuilt != 4 {
		t.Errorf("unkeyable build: loaded=%d rebuilt=%d, want 0/4", stats.Loaded, stats.Rebuilt)
	}
	entries, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("unkeyable build left file %s in the store", filepath.Join(st.Dir(), e.Name()))
	}
	s := st.Stats()
	if s.Puts != 0 || s.Hits != 0 || s.Misses != 0 {
		t.Errorf("unkeyable build touched the store: %+v", s)
	}
}
