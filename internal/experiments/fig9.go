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
	alphas := []float64{1, 1.05, 1.25, 1.5, 1.75, 2}
	ratios := []float64{0.3, 0.5}
	kinds := []QueryKind{QRWR, QHOP, QPHP}
	rows, err := alphaSweep(sc, alphas, ratios, kinds)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Fig. 9 — effect of alpha (averaged over datasets)",
		Header: []string{"Ratio", "Alpha", "Query", "SMAPE", "Spearman"},
	}
	for _, r := range rows {
		t.Append(r.ratio, r.alpha, string(r.kind), r.smape, r.spear)
	}
	return t, nil
}

type sweepRow struct {
	ratio, alpha float64
	kind         QueryKind
	smape, spear float64
}

// alphaSweep measures mean accuracy across datasets for every (ratio, alpha,
// query-kind) combination. Ground truth is computed once per dataset.
func alphaSweep(sc Scale, alphas, ratios []float64, kinds []QueryKind) ([]sweepRow, error) {
	type key struct {
		ratio, alpha float64
		kind         QueryKind
	}
	sums := map[key][2]float64{}
	nd := 0
	for _, d := range datasets.Real() {
		if !sc.wantsDataset(d.Short) {
			continue
		}
		g := d.Load(sc.Graph)
		qs := graph.SampleNodes(g, sc.Queries, sc.Seed+17)
		truth, err := computeTruth(g, qs, kinds, sc)
		if err != nil {
			return nil, err
		}
		for _, ratio := range ratios {
			for _, alpha := range alphas {
				res, err := core.Summarize(g, core.Config{
					Targets: qs, Alpha: alpha, BudgetRatio: ratio, Seed: sc.Seed,
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
					cur := sums[key{ratio, alpha, k}]
					sums[key{ratio, alpha, k}] = [2]float64{cur[0] + sm, cur[1] + sp}
				}
			}
		}
		nd++
	}
	var rows []sweepRow
	for _, ratio := range ratios {
		for _, alpha := range alphas {
			for _, k := range kinds {
				s := sums[key{ratio, alpha, k}]
				if nd > 0 {
					rows = append(rows, sweepRow{ratio, alpha, k, s[0] / float64(nd), s[1] / float64(nd)})
				}
			}
		}
	}
	return rows, nil
}
