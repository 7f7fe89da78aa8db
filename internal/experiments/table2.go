package experiments

import (
	"pegasus/internal/datasets"
	"pegasus/internal/graph"
)

// Table2 reproduces Table II: the dataset inventory. Our numbers are the
// synthetic stand-ins' (10–2,500× fewer nodes; see DESIGN.md "Dataset
// stand-ins"); the Paper columns echo the original sizes for comparison.
func Table2(sc Scale) (*Table, error) {
	t := &Table{
		Title:  "Table II — datasets (synthetic stand-ins; paper sizes for reference)",
		Header: []string{"Name", "Code", "Kind", "|V|", "|E|", "EffDiam(90%)", "Paper |V|", "Paper |E|"},
	}
	paperV := map[string]string{
		"LA": "7,624", "CA": "26,475", "DB": "317,080", "A6": "403,364",
		"SK": "1,694,616", "WK": "3,174,745", "ST": "10,000,000",
	}
	paperE := map[string]string{
		"LA": "27,806", "CA": "53,381", "DB": "1,049,866", "A6": "2,443,311",
		"SK": "11,094,209", "WK": "103,310,688", "ST": "1,000,000,000",
	}
	for _, d := range datasets.Registry() {
		if d.Short != "ST" && !sc.wantsDataset(d.Short) {
			continue
		}
		g := d.Load(sc.Graph)
		diam := graph.EffectiveDiameter(g, 50, sc.Seed)
		t.Append(d.Name, d.Short, d.Kind, g.NumNodes(), g.NumEdges(), diam, paperV[d.Short], paperE[d.Short])
	}
	return t, nil
}
