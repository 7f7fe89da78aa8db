package experiments

import (
	"pegasus/internal/core"
	"pegasus/internal/datasets"
	"pegasus/internal/distributed"
	"pegasus/internal/graph"
	"pegasus/internal/metrics"
	"pegasus/internal/partition"
	"pegasus/internal/queries"
	"pegasus/internal/ssumm"
	"pegasus/internal/summary"
)

// Fig12 reproduces Fig. 12 (and Fig. 2c): "communication-free" distributed
// multi-query answering with m = 8 machines. The PeGaSus cluster loads, on
// each machine, a summary personalized to one Louvain part (Alg. 3); the
// SSumM cluster replicates a non-personalized summary; the partitioning
// baselines (Louvain, BLP, SHP-I/II/KL) load size-bounded subgraphs composed
// of the edges closest to each part (§IV, "potential alternatives"). Each
// query is answered locally by the machine owning the query node; SMAPE and
// Spearman against the full-graph ground truth are averaged over queries.
func Fig12(sc Scale) (*Table, error) {
	t := &Table{
		Title:  "Fig. 12 — communication-free distributed multi-query answering (m=8)",
		Note:   "per-machine budget = ratio × Size(G)",
		Header: []string{"Dataset", "Ratio", "System", "Query", "SMAPE", "Spearman"},
	}
	const m = 8
	kinds := []QueryKind{QRWR, QHOP}
	for _, d := range datasets.Real() {
		if !sc.wantsDataset(d.Short) {
			continue
		}
		g := d.Load(sc.Graph)
		qs := graph.SampleNodes(g, sc.Queries, sc.Seed+29)
		truth, err := computeTruth(g, qs, kinds, sc)
		if err != nil {
			return nil, err
		}
		louvain := partition.Partition(g, m, partition.MethodLouvain, sc.Seed)
		for _, ratio := range sc.Ratios {
			budget := ratio * g.SizeBits()

			// PeGaSus cluster: per-part personalized summaries.
			pc, err := distributed.BuildSummaryCluster(g, louvain, m, budget,
				core.Config{Seed: sc.Seed})
			if err != nil {
				return nil, err
			}
			if err := appendClusterRows(t, d.Short, ratio, "PeGaSus", pc, truth, qs, kinds, sc); err != nil {
				return nil, err
			}

			// SSumM cluster: one non-personalized summary answers everything
			// (SSumM cannot focus on regions, §III-G).
			sres, err := ssumm.Summarize(g, ssumm.Config{BudgetBits: budget, Seed: sc.Seed})
			if err != nil {
				return nil, err
			}
			scl := replicatedSummaryCluster(g, sres.Summary, m, louvain)
			if err := appendClusterRows(t, d.Short, ratio, "SSumM", scl, truth, qs, kinds, sc); err != nil {
				return nil, err
			}

			// Partitioning baselines: subgraph clusters.
			for _, pm := range partition.Methods {
				labels := louvain
				if pm != partition.MethodLouvain {
					labels = partition.Partition(g, m, pm, sc.Seed)
				}
				cl, err := distributed.BuildSubgraphCluster(g, labels, m, budget)
				if err != nil {
					return nil, err
				}
				if err := appendClusterRows(t, d.Short, ratio, string(pm), cl, truth, qs, kinds, sc); err != nil {
					return nil, err
				}
			}
		}
	}
	return t, nil
}

// replicatedSummaryCluster loads the same summary on every machine (the
// SSumM arrangement: no personalization, so replication is its best use of
// m × k memory for communication-free answering).
func replicatedSummaryCluster(g *graph.Graph, s *summary.Summary, m int, labels []uint32) *distributed.Cluster {
	c := &distributed.Cluster{Assign: labels, Machines: make([]*distributed.Machine, m)}
	for i := 0; i < m; i++ {
		c.Machines[i] = &distributed.Machine{Summary: s}
	}
	return c
}

// appendClusterRows scores the cluster's answers to qs, each on the
// machine the cluster routes it to, through one session per machine.
func appendClusterRows(t *Table, ds string, ratio float64, system string, c *distributed.Cluster, truth *groundTruth, qs []graph.NodeID, kinds []QueryKind, sc Scale) error {
	sessions := make([]queries.Session, len(c.Machines))
	for i, m := range c.Machines {
		sessions[i] = m.NewSession()
	}
	for _, k := range kinds {
		var sm, sp float64
		for _, q := range qs {
			var approx, exact []float64
			switch k {
			case QRWR:
				i, err := c.Route(q)
				if err != nil {
					return err
				}
				v, err := sessions[i].RWR(q, sc.RWR)
				if err != nil {
					return err
				}
				approx, exact = v, truth.rwr[q]
			case QHOP:
				d, err := c.HOP(q)
				if err != nil {
					return err
				}
				approx = queries.ToFloats(queries.FillUnreached(d, int32(len(c.Assign))))
				exact = truth.hop[q]
			case QPHP:
				i, err := c.Route(q)
				if err != nil {
					return err
				}
				v, err := sessions[i].PHP(q, sc.PHP)
				if err != nil {
					return err
				}
				approx, exact = v, truth.php[q]
			}
			a, err := metrics.SMAPE(exact, approx)
			if err != nil {
				return err
			}
			b, err := metrics.Spearman(exact, approx)
			if err != nil {
				return err
			}
			sm += a
			sp += b
		}
		n := float64(len(qs))
		t.Append(ds, ratio, system, string(k), sm/n, sp/n)
	}
	return nil
}

// Fig12PHP is the PHP panel of the distributed experiment (online appendix).
func Fig12PHP(sc Scale) (*Table, error) {
	t := &Table{
		Title:  "Fig. 12 (appendix) — distributed multi-query answering, PHP",
		Header: []string{"Dataset", "Ratio", "System", "Query", "SMAPE", "Spearman"},
	}
	const m = 8
	kinds := []QueryKind{QPHP}
	for _, d := range datasets.Real() {
		if !sc.wantsDataset(d.Short) {
			continue
		}
		g := d.Load(sc.Graph)
		qs := graph.SampleNodes(g, sc.Queries, sc.Seed+29)
		truth, err := computeTruth(g, qs, kinds, sc)
		if err != nil {
			return nil, err
		}
		louvain := partition.Partition(g, m, partition.MethodLouvain, sc.Seed)
		for _, ratio := range sc.Ratios {
			budget := ratio * g.SizeBits()
			pc, err := distributed.BuildSummaryCluster(g, louvain, m, budget,
				core.Config{Seed: sc.Seed})
			if err != nil {
				return nil, err
			}
			if err := appendClusterRows(t, d.Short, ratio, "PeGaSus", pc, truth, qs, kinds, sc); err != nil {
				return nil, err
			}
			cl, err := distributed.BuildSubgraphCluster(g, louvain, m, budget)
			if err != nil {
				return nil, err
			}
			if err := appendClusterRows(t, d.Short, ratio, "louvain", cl, truth, qs, kinds, sc); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}
