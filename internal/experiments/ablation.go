package experiments

import (
	"pegasus/internal/core"
	"pegasus/internal/datasets"
	"pegasus/internal/graph"
	"pegasus/internal/metrics"
	"pegasus/internal/queries"
	"pegasus/internal/weights"
)

// AblationCost reproduces the online-appendix ablation justifying the
// relative cost reduction (Eq. 11) over the absolute reduction (Eq. 10):
// with the absolute criterion, node pairs that are merely *distant from the
// targets* (small weights → small absolute cost) get merged myopically even
// when their connectivity disagrees, inflating the personalized error and
// degrading query accuracy.
func AblationCost(sc Scale) (*Table, error) {
	t := &Table{
		Title:  "Ablation — relative (Eq. 11) vs absolute (Eq. 10) cost reduction, ratio 0.5",
		Header: []string{"Dataset", "Cost", "PersonalizedError", "SMAPE(RWR)", "Spearman(RWR)"},
	}
	const ratio = 0.5
	kinds := []QueryKind{QRWR}
	for _, d := range datasets.Real() {
		if !sc.wantsDataset(d.Short) {
			continue
		}
		g := d.Load(sc.Graph)
		qs := graph.SampleNodes(g, sc.Queries, sc.Seed+31)
		truth, err := computeTruth(g, qs, kinds, sc)
		if err != nil {
			return nil, err
		}
		w, err := weights.New(g, qs, 1.25)
		if err != nil {
			return nil, err
		}
		for _, mode := range []struct {
			name string
			cm   core.CostMode
		}{{"relative", core.RelativeCost}, {"absolute", core.AbsoluteCost}} {
			res, err := core.Summarize(g, core.Config{
				Targets: qs, BudgetRatio: ratio, Seed: sc.Seed, CostMode: mode.cm,
			})
			if err != nil {
				return nil, err
			}
			pe := metrics.PersonalizedError(g, res.Summary, w)
			sm, sp, err := accuracy(res.Summary, queries.NewSummarySession(res.Summary), truth, qs, QRWR, sc)
			if err != nil {
				return nil, err
			}
			t.Append(d.Short, mode.name, pe, sm, sp)
		}
	}
	return t, nil
}
