package experiments

import (
	"fmt"
	"sort"
)

// Runner regenerates one table or figure.
type Runner func(Scale) (*Table, error)

// registry maps experiment IDs (as used by cmd/pegasus-experiments and the
// ID table in EXPERIMENTS.md) to runners.
var registry = map[string]Runner{
	"table2":   Table2,
	"fig5":     Fig5,
	"fig6":     Fig6,
	"fig7":     Fig7,
	"fig7php":  Fig7PHP,
	"fig8":     Fig8,
	"fig9":     Fig9,
	"fig10":    Fig10,
	"fig11":    Fig11,
	"fig12":    Fig12,
	"fig12php": Fig12PHP,
	"ablation": AblationCost,
	// Ablations beyond the paper's appendix, for the design choices called
	// out in DESIGN.md.
	"ablation-threshold": AblationThreshold,
	"ablation-grouping":  AblationGrouping,
}

// Names lists the registered experiment IDs in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Run executes the experiment with the given ID.
func Run(id string, sc Scale) (*Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, Names())
	}
	return r(sc)
}
