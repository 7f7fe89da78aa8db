package experiments

import (
	"pegasus/internal/core"
	"pegasus/internal/datasets"
	"pegasus/internal/graph"
	"pegasus/internal/queries"
)

// Fig11 reproduces Fig. 11: the effect of the adaptive-thresholding
// parameter β on query accuracy at ratios 0.3 and 0.5, averaged over
// datasets. β ≈ 0 selects the largest rejected reduction (slowest threshold
// decay); the paper finds moderate β (≈0.1) best, with little sensitivity
// unless β is extreme.
func Fig11(sc Scale) (*Table, error) {
	t := &Table{
		Title:  "Fig. 11 — effect of beta (averaged over datasets)",
		Header: []string{"Ratio", "Beta", "Query", "SMAPE", "Spearman"},
	}
	betas := []float64{1e-9, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9}
	kinds := []QueryKind{QRWR, QHOP, QPHP}
	ratios := []float64{0.3, 0.5}

	type key struct {
		ratio, beta float64
		kind        QueryKind
	}
	sums := map[key][2]float64{}
	nd := 0
	for _, d := range datasets.Real() {
		if !sc.wantsDataset(d.Short) {
			continue
		}
		g := d.Load(sc.Graph)
		qs := graph.SampleNodes(g, sc.Queries, sc.Seed+19)
		truth, err := computeTruth(g, qs, kinds, sc)
		if err != nil {
			return nil, err
		}
		for _, ratio := range ratios {
			for _, beta := range betas {
				res, err := core.Summarize(g, core.Config{
					Targets: qs, Beta: beta, BudgetRatio: ratio, Seed: sc.Seed,
				})
				if err != nil {
					return nil, err
				}
				sess := queries.NewSummarySession(res.Summary)
				for _, k := range kinds {
					sm, sp, err := accuracy(res.Summary, sess, truth, qs, k, sc)
					if err != nil {
						return nil, err
					}
					cur := sums[key{ratio, beta, k}]
					sums[key{ratio, beta, k}] = [2]float64{cur[0] + sm, cur[1] + sp}
				}
			}
		}
		nd++
	}
	for _, ratio := range ratios {
		for _, beta := range betas {
			for _, k := range kinds {
				s := sums[key{ratio, beta, k}]
				if nd > 0 {
					t.Append(ratio, beta, string(k), s[0]/float64(nd), s[1]/float64(nd))
				}
			}
		}
	}
	return t, nil
}
