package distributed

import (
	"context"
	"fmt"
	"testing"

	"pegasus/internal/core"
	"pegasus/internal/gen"
	"pegasus/internal/graph"
	"pegasus/internal/partition"
)

// benchClusterInput builds the 4-shard benchmark graph once per process.
func benchClusterInput(b *testing.B) (*graph.Graph, []uint32, int, float64) {
	b.Helper()
	g := gen.PlantedPartition(gen.SBMConfig{Nodes: 2000, Communities: 4, AvgDegree: 12, MixingP: 0.05}, 1)
	lcc, _ := graph.LargestComponent(g)
	m := 4
	labels := partition.Partition(lcc, m, partition.MethodRandom, 1)
	return lcc, labels, m, 0.4 * lcc.SizeBits()
}

// BenchmarkBuildSummaryCluster measures the Alg. 3 preprocessing at
// different build-parallelism levels on a 4-shard graph. The workers=1 case
// is the legacy sequential build; the speedup of workers>=4 over it is the
// tentpole's acceptance number (≈m× on an m-core machine, since the
// per-shard builds are independent).
func BenchmarkBuildSummaryCluster(b *testing.B) {
	g, labels, m, budget := benchClusterInput(b)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := core.Config{Seed: 3}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := BuildSummaryClusterCtx(context.Background(), g, labels, m, budget, cfg, BuildOpts{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
