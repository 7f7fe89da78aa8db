//go:build scale

// Scale smoke: the real-graph serving path at the 10^5-node tier, behind the
// "scale" build tag so the regular `go test ./...` tier-1 run never pays for
// it. CI runs it as a dedicated step:
//
//	go test -tags scale -run 'TestScale' -timeout 20m -v .
//
// Under -short the node scale drops 10x (for a quick local
// `go test -tags scale -short .`).
package pegasus_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"testing"
	"time"

	"pegasus"
	"pegasus/internal/datasets"
)

// TestScaleSmoke drives 10^5 nodes end to end — gzip SNAP encode, parallel
// ingest (verified bit-identical to the sequential ingest and to the source
// graph), sharded cluster build, 100 routed RWR queries — under a wall-clock
// budget. The budget is deliberately loose (about 50x the 8–10 s this path
// takes on a 2-vCPU host): it is not a performance gate, it exists to catch
// accidental O(|V|²) regressions, which overshoot it by orders of magnitude.
func TestScaleSmoke(t *testing.T) {
	// Alg. 3 summarizes the whole graph once per shard, so the smoke keeps
	// the shard count at 2: enough to exercise routing and the concurrent
	// shard builds without multiplying the 10^5-node summarization cost.
	const timeBudget = 8 * time.Minute
	shards, scale := 2, 1.0
	if testing.Short() {
		scale = 0.1
	}
	start := time.Now()

	d, err := datasets.ByShort("S5")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Generate(scale)
	wantFP := pegasus.GraphFingerprint(g)
	t.Logf("generated %s at scale %g: |V|=%d |E|=%d", d.Name, scale, g.NumNodes(), g.NumEdges())

	var enc bytes.Buffer
	zw := gzip.NewWriter(&enc)
	if err := pegasus.WriteSNAP(zw, g); err != nil {
		t.Fatalf("encode SNAP: %v", err)
	}
	if err := zw.Close(); err != nil {
		t.Fatalf("gzip close: %v", err)
	}

	res, err := pegasus.IngestEdgeListBytes(enc.Bytes(), pegasus.IngestOptions{})
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if fp := pegasus.GraphFingerprint(res.Graph); fp != wantFP {
		t.Fatalf("ingested fingerprint %s != source %s — SNAP round-trip broken", fp, wantFP)
	}
	seq, err := pegasus.IngestEdgeListBytes(enc.Bytes(), pegasus.IngestOptions{Workers: 1})
	if err != nil {
		t.Fatalf("sequential ingest: %v", err)
	}
	if fp := pegasus.GraphFingerprint(seq.Graph); fp != wantFP || seq.Stats != res.Stats {
		t.Fatal("parallel and sequential ingests disagree — worker-count bit-identity broken")
	}
	ig := res.Graph

	labels, err := pegasus.PartitionGraph(ig, shards, pegasus.PartitionRandom, 1)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	c, err := pegasus.BuildSummaryClusterCtx(context.Background(), ig, labels, shards,
		0.7*ig.SizeBits(), pegasus.Config{Seed: 1}, 0)
	if err != nil {
		t.Fatalf("cluster build: %v", err)
	}
	t.Logf("built %d-shard cluster in %v total elapsed", shards, time.Since(start).Round(time.Millisecond))

	qcfg := pegasus.RWRConfig{Eps: 1e-300, MaxIter: 6}
	for i := 0; i < 100; i++ {
		q := pegasus.NodeID((i * 9973) % ig.NumNodes())
		scores, err := c.RWR(q, qcfg)
		if err != nil {
			t.Fatalf("query %d (node %d): %v", i, q, err)
		}
		sum := 0.0
		for _, s := range scores {
			if s < 0 {
				t.Fatalf("query %d: negative RWR score %g", i, s)
			}
			sum += s
		}
		if sum <= 0 {
			t.Fatalf("query %d: all-zero RWR scores", i)
		}
	}

	if el := time.Since(start); el > timeBudget {
		t.Fatalf("scale smoke took %v, budget %v — superlinear regression on the ingest/build/query path", el, timeBudget)
	}
}

// TestScaleGoldenFingerprintS6 pins the 10^6-node fallback (the S5 pin runs
// untagged in internal/datasets). Drift means every recorded S6 measurement
// (ROADMAP.md item 5) silently describes a different graph.
func TestScaleGoldenFingerprintS6(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 10^6-node graph")
	}
	d, err := datasets.ByShort("S6")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Generate(1)
	if g.NumNodes() != 1_000_000 {
		t.Fatalf("|V| = %d, want 1000000", g.NumNodes())
	}
	if g.NumEdges() != 7_999_964 {
		t.Fatalf("|E| = %d, want 7999964", g.NumEdges())
	}
	const golden = "d77a845abc8023d0b363421194e85efab0570802e03086a774eec76b4b6f29b8"
	if fp := pegasus.GraphFingerprint(g); fp != golden {
		t.Fatalf("S6 fingerprint drifted:\n got  %s\n want %s", fp, golden)
	}
}
