package experiments

import (
	"math/rand"

	"pegasus/internal/core"
	"pegasus/internal/gen"
	"pegasus/internal/graph"
	"pegasus/internal/queries"
)

// Fig10 reproduces Fig. 10: the relation between the best-performing α and
// the effective diameter of the input. Five Watts–Strogatz graphs with
// |V| = 1000, |E| = 10000 and rewiring probabilities {0, 1e-4, 1e-3, 1e-2,
// 1e-1} span effective diameters from ~45 down to ~4 (§V-E). The target set
// is 100 BFS-adjacent nodes from a random node (distant nodes cannot be
// personalized effectively on large-diameter graphs), the compression ratio
// 0.3, and for each query kind the α maximizing accuracy is reported. The
// paper finds the best α decreasing as the effective diameter grows.
func Fig10(sc Scale) (*Table, error) {
	t := &Table{
		Title:  "Fig. 10 — best alpha vs effective diameter (Watts-Strogatz sweep, ratio 0.3)",
		Header: []string{"RewireP", "EffDiam", "Query", "BestAlpha(SMAPE)", "BestAlpha(SC)"},
	}
	nodes := 1000
	if sc.Graph < 1 {
		nodes = 500
	}
	k := 20 // ring degree: |E| = n·k/2
	alphas := []float64{1.05, 1.25, 1.5, 1.75, 2}
	kinds := []QueryKind{QRWR, QHOP, QPHP}
	rewire := []float64{0, 0.0001, 0.001, 0.01, 0.1}

	for _, p := range rewire {
		g := gen.WattsStrogatz(nodes, k, p, sc.Seed+23)
		g, _ = graph.LargestComponent(g)
		diam := graph.EffectiveDiameter(g, 60, sc.Seed)

		// 100 adjacent nodes by BFS from a random node (both the query set
		// and the target set, per §V-E).
		rng := rand.New(rand.NewSource(sc.Seed + int64(p*1e6)))
		src := graph.NodeID(rng.Intn(g.NumNodes()))
		targets := graph.BFSOrder(g, src, 100)
		qs := targets
		if len(qs) > sc.Queries {
			qs = qs[:sc.Queries]
		}
		truth, err := computeTruth(g, qs, kinds, sc)
		if err != nil {
			return nil, err
		}

		type score struct{ smape, spear float64 }
		byAlpha := map[float64]map[QueryKind]score{}
		for _, alpha := range alphas {
			res, err := core.Summarize(g, core.Config{
				Targets: targets, Alpha: alpha, BudgetRatio: 0.3, Seed: sc.Seed,
			})
			if err != nil {
				return nil, err
			}
			byAlpha[alpha] = map[QueryKind]score{}
			sess := queries.NewSummarySession(res.Summary)
			for _, kd := range kinds {
				sm, sp, err := accuracy(res.Summary, sess, truth, qs, kd, sc)
				if err != nil {
					return nil, err
				}
				byAlpha[alpha][kd] = score{sm, sp}
			}
		}
		for _, kd := range kinds {
			bestSm, bestSp := alphas[0], alphas[0]
			for _, a := range alphas {
				if byAlpha[a][kd].smape < byAlpha[bestSm][kd].smape {
					bestSm = a
				}
				if byAlpha[a][kd].spear > byAlpha[bestSp][kd].spear {
					bestSp = a
				}
			}
			t.Append(p, diam, string(kd), bestSm, bestSp)
		}
	}
	return t, nil
}
