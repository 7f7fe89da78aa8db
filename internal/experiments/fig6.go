package experiments

import (
	"math"
	"time"

	"pegasus/internal/core"
	"pegasus/internal/datasets"
	"pegasus/internal/graph"
)

// Fig6 reproduces Fig. 6 (and Fig. 2b): linear scalability. Induced
// subgraphs of 10%..100% of the nodes are sampled from the Skitter stand-in
// and the BA synthetic; PeGaSus summarization time is measured with |T| =
// 100 and |T| = |V|/2, and a log–log regression slope over the edge counts
// is reported (the paper's slope-1 reference line). The paper's billion-edge
// graph is substituted by the reduced ST stand-in (DESIGN.md "Dataset
// stand-ins").
func Fig6(sc Scale) (*Table, error) {
	t := &Table{
		Title:  "Fig. 6 — scalability: summarization time vs |E| (slope ~1 = linear)",
		Header: []string{"Dataset", "|T|", "Frac", "|V|", "|E|", "Time"},
	}
	fractions := []float64{0.1, 0.2, 0.4, 0.7, 1.0}
	type sweep struct {
		code    string
		targets string
	}
	sweeps := []sweep{{"SK", "100"}, {"SK", "|V|/2"}, {"ST", "100"}}
	slopes := &Table{
		Title:  "Fig. 6 — fitted log-log slopes",
		Header: []string{"Dataset", "|T|", "Slope"},
	}
	for _, sw := range sweeps {
		d, err := datasets.ByShort(sw.code)
		if err != nil {
			return nil, err
		}
		full := d.Load(sc.Graph)
		var xs, ys []float64
		for _, f := range fractions {
			g := graph.SampleInducedSubgraph(full, f, sc.Seed)
			g, _ = graph.LargestComponent(g)
			if g.NumEdges() < 10 {
				continue
			}
			tc := 100
			if sw.targets == "|V|/2" {
				tc = g.NumNodes() / 2
			}
			targets := graph.SampleNodes(g, tc, sc.Seed+3)
			start := time.Now()
			if _, err := core.Summarize(g, core.Config{
				Targets: targets, BudgetRatio: 0.5, Seed: sc.Seed,
			}); err != nil {
				return nil, err
			}
			el := time.Since(start)
			t.Append(sw.code, sw.targets, f, g.NumNodes(), g.NumEdges(), el)
			xs = append(xs, math.Log(float64(g.NumEdges())))
			ys = append(ys, math.Log(el.Seconds()+1e-9))
		}
		slopes.Append(sw.code, sw.targets, regressionSlope(xs, ys))
	}
	// Merge the slope table under the main one.
	t.Rows = append(t.Rows, []string{"", "", "", "", "", ""})
	t.Rows = append(t.Rows, []string{"-- slopes --", "", "", "", "", ""})
	for _, r := range slopes.Rows {
		t.Rows = append(t.Rows, []string{r[0], r[1], "slope", r[2], "", ""})
	}
	return t, nil
}

// regressionSlope fits y = a + b·x by least squares and returns b.
func regressionSlope(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}
