package queries_test

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"pegasus/internal/core"
	"pegasus/internal/distributed"
	"pegasus/internal/gen"
	"pegasus/internal/graph"
	"pegasus/internal/obs"
	"pegasus/internal/partition"
	"pegasus/internal/queries"
	"pegasus/internal/summary"
)

// BenchmarkSummarySession times one query of the summary session's RWR and
// PHP kernels on the deployment shape the serving benchmark measures: a
// Barabási–Albert graph of 2000 nodes with 8 edges per new node, a 2-shard
// random partition, 20 targets (1% of V) and a per-shard budget of half of
// Size(G). Each op answers the next node of a fixed 40-node query set on its
// owning shard's session, the path a cold server request takes. iters/query
// is the mean power-iteration count over the set, read from the sessions'
// spans in one untimed pass: it is exact, so two builds of the kernels
// compare on the same work. WeightedRWR and WeightedPHP run the same queries
// on the density-weighted summaries of the shards' partitions (the output
// form of the k-GraSS, S2L and SAAGs baselines), which take the kernels'
// weighted path.
//
//	go test -run '^$' -bench BenchmarkSummarySession -benchmem ./internal/queries
func BenchmarkSummarySession(b *testing.B) {
	const n, seed = 2000, 8
	g := gen.BarabasiAlbert(n, 8, seed)
	labels := partition.Partition(g, 2, partition.MethodRandom, seed)
	var targets []graph.NodeID
	for _, u := range rand.New(rand.NewSource(seed)).Perm(n)[:n/100] {
		targets = append(targets, graph.NodeID(u))
	}
	c, _, err := distributed.BuildSummaryClusterCtx(context.Background(), g, labels, 2, 0.5*g.SizeBits(),
		core.Config{Seed: seed}, distributed.BuildOpts{Targets: targets})
	if err != nil {
		b.Fatal(err)
	}
	shardSess := make([]queries.Session, len(c.Machines))
	weightedSess := make([]queries.Session, len(c.Machines))
	for i, m := range c.Machines {
		shardSess[i] = m.NewSession()
		weightedSess[i] = queries.NewSummarySession(summary.FromPartitionDensity(g, m.Summary.SupernodeOf()))
	}
	var qs []graph.NodeID
	var sess, weighted []queries.Session // sess[i] and weighted[i] answer qs[i]
	for q := 0; q < n; q += n / 40 {
		i, err := c.Route(graph.NodeID(q))
		if err != nil {
			b.Fatal(err)
		}
		qs = append(qs, graph.NodeID(q))
		sess = append(sess, shardSess[i])
		weighted = append(weighted, weightedSess[i])
	}

	for _, form := range []struct {
		name string
		sess []queries.Session
	}{{"", sess}, {"Weighted", weighted}} {
		for _, k := range []struct {
			name   string
			answer func(ctx context.Context, s queries.Session, q graph.NodeID) error
		}{
			{"RWR", func(ctx context.Context, s queries.Session, q graph.NodeID) error {
				_, err := s.RWR(q, queries.RWRConfig{Ctx: ctx})
				return err
			}},
			{"PHP", func(ctx context.Context, s queries.Session, q graph.NodeID) error {
				_, err := s.PHP(q, queries.PHPConfig{Ctx: ctx})
				return err
			}},
		} {
			b.Run(form.name+k.name, func(b *testing.B) {
				iters := 0
				for i, q := range qs {
					tr := obs.NewTrace()
					if err := k.answer(obs.WithTrace(context.Background(), tr), form.sess[i], q); err != nil {
						b.Fatal(err)
					}
					iters += spanIterations(b, tr)
				}
				b.ReportAllocs()
				for i := 0; b.Loop(); i++ {
					j := i % len(qs)
					if err := k.answer(nil, form.sess[j], qs[j]); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(iters)/float64(len(qs)), "iters/query")
			})
		}
	}
}

// spanIterations returns the iterations attr of the one span in tr.
func spanIterations(b *testing.B, tr *obs.Trace) int {
	b.Helper()
	v := tr.View()
	if len(v.Spans) != 1 {
		b.Fatalf("want one session span, got %d", len(v.Spans))
	}
	for _, a := range v.Spans[0].Attrs {
		if a.Key == "iterations" {
			it, err := strconv.Atoi(a.Val)
			if err != nil {
				b.Fatal(err)
			}
			return it
		}
	}
	b.Fatal("session span carries no iterations attr")
	return 0
}
