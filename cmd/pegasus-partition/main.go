// Command pegasus-partition divides a graph into m balanced parts with any
// of the library's partitioners and reports partition quality (edge cut,
// average query fanout, balance) — the preprocessing step of the
// distributed application (§IV) as a standalone tool.
//
// Usage:
//
//	pegasus-partition -in graph.txt -m 8 -method louvain -out labels.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"pegasus"
	"pegasus/internal/graph"
	"pegasus/internal/par"
	"pegasus/internal/partition"
)

func main() {
	var (
		in      = flag.String("in", "", "input edge-list file (required)")
		out     = flag.String("out", "", "output label file: one part ID per node (optional)")
		m       = flag.Int("m", 8, "number of parts")
		method  = flag.String("method", "louvain", "louvain | blp | shpi | shpii | shpkl | random")
		seed    = flag.Int64("seed", 0, "random seed")
		all     = flag.Bool("compare", false, "run every method and print a quality table")
		workers = flag.Int("workers", 0, "methods partitioned concurrently in -compare mode (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *m < 1 {
		fmt.Fprintf(os.Stderr, "pegasus-partition: -m must be at least 1, got %d\n", *m)
		flag.Usage()
		os.Exit(2)
	}
	g, err := pegasus.LoadGraph(*in)
	if err != nil {
		fatal("load graph: %v", err)
	}
	g, _ = pegasus.LargestComponent(g)
	fmt.Printf("input: |V|=%d |E|=%d\n", g.NumNodes(), g.NumEdges())

	if *all {
		// Each method partitions independently; run them concurrently and
		// print in the fixed method order once all are done.
		methods := append(partition.Methods, partition.MethodRandom)
		results := make([][]uint32, len(methods))
		par.ForEach(*workers, len(methods), func(_, i int) {
			results[i] = partition.Partition(g, *m, methods[i], *seed)
		})
		fmt.Printf("%-8s  %10s  %8s  %9s\n", "method", "edge-cut", "fanout", "imbalance")
		for i, mm := range methods {
			report(g, string(mm), results[i], *m)
		}
		return
	}

	labels, err := pegasus.PartitionGraph(g, *m, *method, *seed)
	if err != nil {
		fatal("%v", err)
	}
	report(g, *method, labels, *m)
	if *out != "" {
		if err := writeLabels(*out, labels); err != nil {
			fatal("write labels: %v", err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

func report(g *graph.Graph, name string, labels []uint32, m int) {
	fmt.Printf("%-8s  %10d  %8.3f  %9.3f\n",
		name, partition.EdgeCut(g, labels), partition.AvgFanout(g, labels, m),
		partition.Imbalance(labels, m))
}

func writeLabels(path string, labels []uint32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for u, l := range labels {
		fmt.Fprintf(w, "%d %d\n", u, l)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pegasus-partition: "+format+"\n", args...)
	os.Exit(1)
}
