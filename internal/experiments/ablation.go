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
	return ablation(sc, "Ablation — relative (Eq. 11) vs absolute (Eq. 10) cost reduction, ratio 0.5", "Cost", 31,
		func(cfg *core.Config, variant string) {
			if variant == "absolute" {
				cfg.CostMode = core.AbsoluteCost
			}
		}, "relative", "absolute")
}

// AblationThreshold isolates the adaptive-thresholding contribution
// (§III-E/G): PeGaSus with its adaptive θ against the same engine with
// SSumM's fixed schedule θ(t) = (1+t)^{-1}, everything else equal
// (personalized weights, relative cost, shingle groups).
func AblationThreshold(sc Scale) (*Table, error) {
	return ablation(sc, "Ablation — adaptive thresholding (PeGaSus) vs fixed schedule (SSumM), ratio 0.5", "Threshold", 37,
		func(cfg *core.Config, variant string) {
			if variant == "fixed" {
				cfg.Threshold = core.FixedSchedule
			}
		}, "adaptive", "fixed")
}

// AblationGrouping isolates the shingle candidate generation (§III-C):
// connectivity-aware groups against uniformly random groups of the same
// size.
func AblationGrouping(sc Scale) (*Table, error) {
	return ablation(sc, "Ablation — shingle candidate groups vs random groups, ratio 0.5", "Grouping", 37,
		func(cfg *core.Config, variant string) {
			if variant == "random" {
				cfg.RandomGroups = true
			}
		}, "shingle", "random")
}

// ablation tabulates, per dataset and variant, the personalized error and
// RWR accuracy of a PeGaSus summary at ratio 0.5, where set adjusts the
// engine config for the named variant and column heads the variant column.
// The query sample of each dataset, which is also the summary's target set,
// is drawn with seed sc.Seed+seedOffset.
func ablation(sc Scale, title, column string, seedOffset int64, set func(*core.Config, string), variants ...string) (*Table, error) {
	t := &Table{
		Title:  title,
		Header: []string{"Dataset", column, "PersonalizedError", "SMAPE(RWR)", "Spearman(RWR)"},
	}
	kinds := []QueryKind{QRWR}
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
		w, err := weights.New(g, qs, 1.25)
		if err != nil {
			return nil, err
		}
		for _, name := range variants {
			cfg := core.Config{Targets: qs, BudgetRatio: 0.5, Seed: sc.Seed}
			set(&cfg, name)
			res, err := core.Summarize(g, cfg)
			if err != nil {
				return nil, err
			}
			pe := metrics.PersonalizedError(g, res.Summary, w)
			sm, sp, err := accuracy(res.Summary, queries.NewSummarySession(res.Summary), truth, qs, QRWR, sc)
			if err != nil {
				return nil, err
			}
			t.Append(d.Short, name, pe, sm, sp)
		}
	}
	return t, nil
}
