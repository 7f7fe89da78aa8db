package experiments

import (
	"pegasus/internal/core"
	"pegasus/internal/datasets"
	"pegasus/internal/graph"
	"pegasus/internal/metrics"
	"pegasus/internal/queries"
	"pegasus/internal/weights"
)

// AblationThreshold isolates the adaptive-thresholding contribution
// (§III-E/G): PeGaSus with its adaptive θ against the same engine with
// SSumM's fixed schedule θ(t) = (1+t)^{-1}, everything else equal
// (personalized weights, relative cost, shingle groups).
func AblationThreshold(sc Scale) (*Table, error) {
	t := &Table{
		Title:  "Ablation — adaptive thresholding (PeGaSus) vs fixed schedule (SSumM), ratio 0.5",
		Header: []string{"Dataset", "Threshold", "PersonalizedError", "SMAPE(RWR)", "Spearman(RWR)"},
	}
	return thresholdStyleAblation(sc, t, func(name string) core.Config {
		cfg := core.Config{BudgetRatio: 0.5, Seed: sc.Seed}
		if name == "fixed" {
			cfg.Threshold = core.FixedSchedule{TMax: 20}
		}
		return cfg
	}, []string{"adaptive", "fixed"})
}

// AblationGrouping isolates the shingle candidate generation (§III-C):
// connectivity-aware groups against uniformly random groups of the same
// size.
func AblationGrouping(sc Scale) (*Table, error) {
	t := &Table{
		Title:  "Ablation — shingle candidate groups vs random groups, ratio 0.5",
		Header: []string{"Dataset", "Grouping", "PersonalizedError", "SMAPE(RWR)", "Spearman(RWR)"},
	}
	return thresholdStyleAblation(sc, t, func(name string) core.Config {
		cfg := core.Config{BudgetRatio: 0.5, Seed: sc.Seed}
		if name == "random" {
			cfg.RandomGroups = true
		}
		return cfg
	}, []string{"shingle", "random"})
}

func thresholdStyleAblation(sc Scale, t *Table, mkCfg func(name string) core.Config, variants []string) (*Table, error) {
	kinds := []QueryKind{QRWR}
	for _, d := range datasets.Real() {
		if !sc.wantsDataset(d.Short) {
			continue
		}
		g := d.Load(sc.Graph)
		qs := graph.SampleNodes(g, sc.Queries, sc.Seed+37)
		truth, err := computeTruth(g, qs, kinds, sc)
		if err != nil {
			return nil, err
		}
		w, err := weights.New(g, qs, 1.25)
		if err != nil {
			return nil, err
		}
		for _, name := range variants {
			cfg := mkCfg(name)
			cfg.Targets = qs
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
