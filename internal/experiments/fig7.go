package experiments

import (
	"pegasus/internal/datasets"
	"pegasus/internal/graph"
	"pegasus/internal/queries"
)

// Fig7 reproduces Fig. 7: query-answering accuracy versus compression ratio,
// PeGaSus (personalized to the 100 query nodes, α = 1.25) against the
// non-personalized state of the art. For every dataset, ratio and method it
// reports SMAPE (lower better) and Spearman correlation (higher better) for
// RWR and HOP queries averaged over the sampled query nodes. PHP accuracy
// (the online appendix's third panel) is produced by Fig7PHP. The slow
// baselines run only on Scale.BaselineDatasets, mirroring the paper's
// o.o.t./o.o.m. entries ("oot" rows).
func Fig7(sc Scale) (*Table, error) {
	return fig7impl(sc, []QueryKind{QRWR, QHOP},
		"Fig. 7 — query accuracy vs compression ratio (RWR & HOP)")
}

// Fig7PHP is the PHP panel of the same experiment (online appendix).
func Fig7PHP(sc Scale) (*Table, error) {
	return fig7impl(sc, []QueryKind{QPHP},
		"Fig. 7 (appendix) — query accuracy vs compression ratio (PHP)")
}

func fig7impl(sc Scale, kinds []QueryKind, title string) (*Table, error) {
	t := &Table{
		Title:  title,
		Note:   "PeGaSus is personalized to the query nodes (|T|=Queries, alpha=1.25)",
		Header: []string{"Dataset", "Ratio(req)", "Method", "Ratio(got)", "Query", "SMAPE", "Spearman"},
	}
	for _, d := range datasets.Real() {
		if !sc.wantsDataset(d.Short) {
			continue
		}
		g := d.Load(sc.Graph)
		qs := graph.SampleNodes(g, sc.Queries, sc.Seed+11)
		truth, err := computeTruth(g, qs, kinds, sc)
		if err != nil {
			return nil, err
		}
		for _, ratio := range sc.Ratios {
			for _, m := range AllMethods {
				if m != MPegasus && m != MSSumM && !sc.wantsBaseline(d.Short) {
					t.Append(d.Short, ratio, string(m), "oot", "-", "-", "-")
					continue
				}
				var targets []graph.NodeID
				if m == MPegasus {
					targets = qs
				}
				res, err := summarizeBy(m, g, targets, ratio, sc.Seed)
				if err != nil {
					return nil, err
				}
				sess := queries.NewSummarySession(res.s)
				for _, k := range kinds {
					sm, sp, err := accuracy(res.s, sess, truth, qs, k, sc)
					if err != nil {
						return nil, err
					}
					t.Append(d.Short, ratio, string(m), res.achievedRatio, string(k), sm, sp)
				}
			}
		}
	}
	return t, nil
}
