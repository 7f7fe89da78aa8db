package experiments

import (
	"pegasus/internal/core"
	"pegasus/internal/datasets"
	"pegasus/internal/graph"
	"pegasus/internal/queries"
)

// Fig9 reproduces Fig. 9: the effect of the degree of personalization α on
// query accuracy, at compression ratios 0.3 and 0.5, averaged over datasets.
// α = 1 is the non-personalized case; the paper finds moderate α (1.25–1.5)
// most accurate, with accuracy degrading when α grows and global structure
// is sacrificed.
func Fig9(sc Scale) (*Table, error) {
	return sweep(sc, "Fig. 9 — effect of alpha (averaged over datasets)", "Alpha", 17,
		func(cfg *core.Config, alpha float64) { cfg.Alpha = alpha },
		[]float64{1, 1.05, 1.25, 1.5, 1.75, 2})
}

// sweep tabulates mean accuracy across datasets for every (ratio, value,
// query kind) combination at ratios 0.3 and 0.5, where set writes the swept
// value into the engine config and param heads its column. The query sample
// of each dataset is drawn with seed sc.Seed+seedOffset, and its ground
// truth is computed once.
func sweep(sc Scale, title, param string, seedOffset int64, set func(*core.Config, float64), values []float64) (*Table, error) {
	ratios := []float64{0.3, 0.5}
	kinds := []QueryKind{QRWR, QHOP, QPHP}
	type key struct {
		ratio, value float64
		kind         QueryKind
	}
	sums := map[key][2]float64{}
	nd := 0
	for _, d := range datasets.Real() {
		if !sc.wantsDataset(d.Short) {
			continue
		}
		g := d.Load(sc.Graph)
		qs := graph.SampleNodes(g, sc.Queries, sc.Seed+seedOffset)
		truth, err := computeTruth(g, qs, kinds, sc)
		if err != nil {
			return nil, err
		}
		for _, ratio := range ratios {
			for _, v := range values {
				cfg := core.Config{Targets: qs, BudgetRatio: ratio, Seed: sc.Seed}
				set(&cfg, v)
				res, err := core.Summarize(g, cfg)
				if err != nil {
					return nil, err
				}
				sess := queries.NewSummarySession(res.Summary)
				for _, k := range kinds {
					sm, sp, err := accuracy(res.Summary, sess, truth, qs, k, sc)
					if err != nil {
						return nil, err
					}
					cur := sums[key{ratio, v, k}]
					sums[key{ratio, v, k}] = [2]float64{cur[0] + sm, cur[1] + sp}
				}
			}
		}
		nd++
	}
	t := &Table{Title: title, Header: []string{"Ratio", param, "Query", "SMAPE", "Spearman"}}
	if nd == 0 {
		return t, nil
	}
	for _, ratio := range ratios {
		for _, v := range values {
			for _, k := range kinds {
				s := sums[key{ratio, v, k}]
				t.Append(ratio, v, string(k), s[0]/float64(nd), s[1]/float64(nd))
			}
		}
	}
	return t, nil
}
