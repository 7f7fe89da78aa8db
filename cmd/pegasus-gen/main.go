// Command pegasus-gen generates synthetic graphs in edge-list format.
//
// Usage:
//
//	pegasus-gen -model ba -n 10000 -m 5 -out graph.txt
//	pegasus-gen -model ba -n 100000 -m 8 -format snap -out graph.txt.gz
//	pegasus-gen -model ws -n 1000 -k 20 -p 0.01 -out smallworld.txt
//	pegasus-gen -model sbm -n 5000 -communities 25 -deg 10 -mix 0.1 -out sbm.txt
//	pegasus-gen -model er -n 1000 -edges 5000 -out er.txt
//
// -format snap emits the SNAP interchange dialect (tab-separated lines under
// a "# Nodes: N Edges: M" comment header) that pegasus-ingest and the
// -ingest serving flag consume; an -out path ending in .gz is
// gzip-compressed. The scale-tier datasets (-model scale100k / scale1m)
// reproduce the deterministic large-graph fallbacks used by the
// scale-tagged smoke test (go test -tags scale -run TestScale .).
package main

import (
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pegasus"
	"pegasus/internal/datasets"
)

func main() {
	var (
		model  = flag.String("model", "ba", "generator: ba | ws | er | sbm | grid | scale100k | scale1m")
		n      = flag.Int("n", 1000, "node count")
		gw     = flag.Int("width", 32, "grid: width")
		gh     = flag.Int("height", 32, "grid: height")
		hwy    = flag.Float64("highways", 0.02, "grid: highway chord fraction")
		m      = flag.Int("m", 3, "ba: edges per new node")
		k      = flag.Int("k", 10, "ws: ring degree (even)")
		p      = flag.Float64("p", 0.01, "ws: rewiring probability")
		edges  = flag.Int("edges", 5000, "er: edge count")
		comms  = flag.Int("communities", 10, "sbm: community count")
		deg    = flag.Float64("deg", 10, "sbm: average degree")
		mix    = flag.Float64("mix", 0.1, "sbm: inter-community edge fraction")
		seed   = flag.Int64("seed", 1, "random seed")
		format = flag.String("format", "plain", "output format: plain (\"u v\" lines) | snap (tab-separated + SNAP header)")
		out    = flag.String("out", "", "output file (default stdout; a .gz suffix gzip-compresses)")
	)
	flag.Parse()

	var g *pegasus.Graph
	switch *model {
	case "ba":
		g = pegasus.GenerateBA(*n, *m, *seed)
	case "ws":
		g = pegasus.GenerateWS(*n, *k, *p, *seed)
	case "er":
		g = pegasus.GenerateER(*n, *edges, *seed)
	case "sbm":
		g = pegasus.GenerateSBM(*n, *comms, *deg, *mix, *seed)
	case "grid":
		g = pegasus.GenerateGrid(*gw, *gh, *hwy, *seed)
	case "scale100k", "scale1m":
		d, err := datasets.ByShort(map[string]string{"scale100k": "S5", "scale1m": "S6"}[*model])
		if err != nil {
			fatal("%v", err)
		}
		g = d.Generate(1)
	default:
		fatal("unknown model %q", *model)
	}
	fmt.Fprintf(os.Stderr, "generated %s graph: |V|=%d |E|=%d\n", *model, g.NumNodes(), g.NumEdges())

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal("%v", err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal("close %s: %v", *out, err)
			}
		}()
		w = f
	}
	if strings.HasSuffix(*out, ".gz") {
		zw := gzip.NewWriter(w)
		defer func() {
			if err := zw.Close(); err != nil {
				fatal("gzip close: %v", err)
			}
		}()
		w = zw
	}

	var err error
	switch *format {
	case "snap":
		err = pegasus.WriteSNAP(w, g)
	case "plain":
		if _, err = fmt.Fprintf(w, "# %s |V|=%d |E|=%d seed=%d\n", *model, g.NumNodes(), g.NumEdges(), *seed); err == nil {
			err = writePlain(w, g)
		}
	default:
		fatal("unknown -format %q (want plain | snap)", *format)
	}
	if err != nil {
		fatal("write: %v", err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "wrote %s (%s)\n", *out, *format)
	}
}

func writePlain(w io.Writer, g *pegasus.Graph) error {
	for _, e := range g.EdgeList() {
		if _, err := fmt.Fprintf(w, "%d %d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pegasus-gen: "+format+"\n", args...)
	os.Exit(1)
}
