// Package datasets provides the experiment inputs. The paper evaluates on
// six real-world graphs (Table II: LastFM-Asia, Caida, DBLP, Amazon0601,
// Skitter, Wikipedia) plus a billion-edge Barabási–Albert synthetic. This
// module is offline, so each real graph is replaced by a deterministic
// synthetic stand-in of the same *family* at reduced scale (see DESIGN.md
// "Dataset stand-ins"): planted-partition SBMs for the community-rich
// social/collaboration/co-purchase graphs and preferential-attachment
// graphs for the heavy-tailed internet/hyperlink graphs. Like the paper (§V-A), every graph is reduced
// to its largest connected component with self-loops removed (the builders
// already drop self-loops).
package datasets

import (
	"fmt"
	"sync"

	"pegasus/internal/gen"
	"pegasus/internal/graph"
)

// Dataset is one experiment input.
type Dataset struct {
	// Name is the paper's dataset name this stands in for.
	Name string
	// Short is the two-letter code used in the paper's figures.
	Short string
	// Kind describes the graph family (matches Table II's Summary column).
	Kind string
	// Generate builds the graph at a node-count scale factor (1 = the
	// default reduced scale).
	Generate func(scale float64) *graph.Graph
}

// scaled returns max(2, round(base*scale)).
func scaled(base int, scale float64) int {
	n := int(float64(base) * scale)
	if n < 2 {
		n = 2
	}
	return n
}

func lcc(g *graph.Graph) *graph.Graph {
	out, _ := graph.LargestComponent(g)
	return out
}

// Registry lists the seven datasets of Table II in paper order. All
// generators are deterministic.
func Registry() []*Dataset {
	return []*Dataset{
		{
			Name: "LastFM-Asia", Short: "LA", Kind: "Social",
			Generate: func(s float64) *graph.Graph {
				return lcc(gen.PlantedPartition(gen.SBMConfig{
					Nodes: scaled(800, s), Communities: 10, AvgDegree: 7.3, MixingP: 0.12,
				}, 101))
			},
		},
		{
			Name: "Caida", Short: "CA", Kind: "Internet",
			Generate: func(s float64) *graph.Graph {
				return lcc(gen.BarabasiAlbert(scaled(1000, s), 2, 102))
			},
		},
		{
			Name: "DBLP", Short: "DB", Kind: "Collaboration",
			Generate: func(s float64) *graph.Graph {
				return lcc(gen.PlantedPartition(gen.SBMConfig{
					Nodes: scaled(1500, s), Communities: 40, AvgDegree: 6.6, MixingP: 0.08,
				}, 103))
			},
		},
		{
			Name: "Amazon0601", Short: "A6", Kind: "Co-purchase",
			Generate: func(s float64) *graph.Graph {
				return lcc(gen.PlantedPartition(gen.SBMConfig{
					Nodes: scaled(1800, s), Communities: 30, AvgDegree: 12.1, MixingP: 0.15,
				}, 104))
			},
		},
		{
			Name: "Skitter", Short: "SK", Kind: "Internet",
			Generate: func(s float64) *graph.Graph {
				return lcc(gen.BarabasiAlbert(scaled(2500, s), 7, 105))
			},
		},
		{
			Name: "Wikipedia", Short: "WK", Kind: "Hyperlinks",
			Generate: func(s float64) *graph.Graph {
				return lcc(gen.BarabasiAlbert(scaled(3000, s), 13, 106))
			},
		},
		{
			Name: "Synthetic", Short: "ST", Kind: "BA Model",
			Generate: func(s float64) *graph.Graph {
				return lcc(gen.BarabasiAlbert(scaled(4000, s), 25, 107))
			},
		},
	}
}

// Real lists the six real-graph stand-ins (excludes the ST synthetic).
func Real() []*Dataset {
	r := Registry()
	return r[:6]
}

// ScaleTier lists the deterministic large-scale synthetic fallbacks used by
// the scale-tagged smoke test (scale_smoke_test.go). Offline CI cannot
// download the SNAP graphs the paper's scalability experiment uses, so
// heavy-tailed Barabási–Albert graphs at 10^5 and 10^6 nodes stand in.
// Deliberately not part of Registry(): the Table II experiment sweeps must
// not pick these up.
func ScaleTier() []*Dataset {
	return []*Dataset{
		{
			Name: "Scale-100K", Short: "S5", Kind: "BA 10^5",
			// BA graphs are connected by construction, so the LCC pass —
			// which would add an O(|V|+|E|) scratch BFS and a full graph
			// copy at this tier — is skipped.
			Generate: func(s float64) *graph.Graph {
				return gen.BarabasiAlbert(scaled(100_000, s), 8, 501)
			},
		},
		{
			Name: "Scale-1M", Short: "S6", Kind: "BA 10^6",
			Generate: func(s float64) *graph.Graph {
				return gen.BarabasiAlbert(scaled(1_000_000, s), 8, 601)
			},
		},
	}
}

// ByShort finds a dataset by its short code, searching the Table II registry
// and then the scale tier.
func ByShort(code string) (*Dataset, error) {
	for _, d := range Registry() {
		if d.Short == code {
			return d, nil
		}
	}
	for _, d := range ScaleTier() {
		if d.Short == code {
			return d, nil
		}
	}
	return nil, fmt.Errorf("datasets: unknown dataset %q", code)
}

// cache memoizes generated graphs per (short, scale) so experiment sweeps
// don't regenerate inputs.
var (
	cacheMu sync.Mutex
	cache   = map[string]*graph.Graph{}
)

// Load generates (or returns the cached) graph for d at the given scale.
func (d *Dataset) Load(scale float64) *graph.Graph {
	key := fmt.Sprintf("%s@%g", d.Short, scale)
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if g, ok := cache[key]; ok {
		return g
	}
	g := d.Generate(scale)
	cache[key] = g
	return g
}
