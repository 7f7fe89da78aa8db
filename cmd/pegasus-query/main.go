// Command pegasus-query answers node-similarity queries on a summary graph
// saved by pegasus -out (a checksummed artifact, read with
// pegasus.LoadSummary) and (optionally) compares them with exact answers on
// the original graph.
//
// Usage:
//
//	pegasus-query -summary s.bin -type rwr -node 42
//	pegasus-query -summary s.bin -graph g.txt -type hop -node 42 -top 10
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"pegasus"
)

func main() {
	var (
		sumPath = flag.String("summary", "", "summary file written by the pegasus tool (required)")
		gPath   = flag.String("graph", "", "original edge list; enables accuracy comparison")
		qtype   = flag.String("type", "rwr", "query type: rwr | hop | php | neighbors")
		node    = flag.Uint64("node", 0, "query node")
		top     = flag.Int("top", 10, "print the top-k results")
	)
	flag.Parse()
	if *sumPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	s, err := pegasus.LoadSummary(*sumPath)
	if err != nil {
		fatal("load summary: %v", err)
	}
	approx, err := answer(os.Stdout, s, *qtype, *node, *top)
	if err != nil {
		fatal("query: %v", err)
	}
	if approx == nil || *gPath == "" {
		return
	}

	g, err := pegasus.LoadGraph(*gPath)
	if err != nil {
		fatal("load graph: %v", err)
	}
	if err := compare(os.Stdout, g, *qtype, pegasus.NodeID(*node), approx); err != nil {
		fatal("%v", err)
	}
}

// answer runs one query of type qtype for node on s and writes the
// approximate answer to w: the neighbour list, or the top scores. It
// returns the score vector, or nil for a neighbors query. A node outside
// the summary is an error for every type.
func answer(w io.Writer, s *pegasus.Summary, qtype string, node uint64, top int) ([]float64, error) {
	if node >= uint64(s.NumNodes()) {
		return nil, fmt.Errorf("query node %d out of range (|V|=%d)", node, s.NumNodes())
	}
	q := pegasus.NodeID(node)
	var approx []float64
	var err error
	switch qtype {
	case "neighbors":
		ns := s.Neighbors(q)
		fmt.Fprintf(w, "approximate neighbors of %d (%d): %v\n", q, len(ns), clip(ns, top))
		return nil, nil
	case "rwr":
		approx, err = pegasus.SummaryRWR(s, q, pegasus.RWRConfig{})
	case "hop":
		var d []int32
		d, err = pegasus.SummaryHOP(s, q)
		if err == nil {
			approx = toFloats(pegasus.FillUnreached(d, int32(s.NumNodes())))
		}
	case "php":
		approx, err = pegasus.SummaryPHP(s, q, pegasus.PHPConfig{})
	default:
		return nil, fmt.Errorf("unknown query type %q", qtype)
	}
	if err != nil {
		return nil, err
	}
	printTop(w, qtype+" (approximate)", approx, top)
	return approx, nil
}

// compare answers the query of type qtype for q exactly on g and writes the
// SMAPE and Spearman correlation of approx, the summary's answer, against
// it. g must be the graph the summary was built from: a graph with another
// node count is refused before any query runs.
func compare(w io.Writer, g *pegasus.Graph, qtype string, q pegasus.NodeID, approx []float64) error {
	if g.NumNodes() != len(approx) {
		return fmt.Errorf("graph has %d nodes but the summary has %d; pass the graph the summary was built from "+
			"(pegasus -lcc, the default, summarizes the largest connected component only)", g.NumNodes(), len(approx))
	}
	var exact []float64
	var err error
	switch qtype {
	case "rwr":
		exact, err = pegasus.GraphRWR(g, q, pegasus.RWRConfig{})
	case "hop":
		var d []int32
		d, err = pegasus.GraphHOP(g, q)
		if err == nil {
			exact = toFloats(pegasus.FillUnreached(d, int32(g.NumNodes())))
		}
	case "php":
		exact, err = pegasus.GraphPHP(g, q, pegasus.PHPConfig{})
	}
	if err != nil {
		return fmt.Errorf("exact query: %w", err)
	}
	sm, err := pegasus.SMAPE(exact, approx)
	if err != nil {
		return err
	}
	sc, err := pegasus.Spearman(exact, approx)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "accuracy vs exact: SMAPE=%.4f Spearman=%.4f\n", sm, sc)
	return nil
}

func printTop(w io.Writer, label string, scores []float64, k int) {
	type nv struct {
		n pegasus.NodeID
		v float64
	}
	all := make([]nv, len(scores))
	for i, v := range scores {
		all[i] = nv{pegasus.NodeID(i), v}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v > all[j].v })
	if k > len(all) {
		k = len(all)
	}
	fmt.Fprintf(w, "%s top-%d:\n", label, k)
	for i := 0; i < k; i++ {
		fmt.Fprintf(w, "  node %-8d %.6g\n", all[i].n, all[i].v)
	}
}

func toFloats(d []int32) []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = float64(v)
	}
	return out
}

func clip(ns []pegasus.NodeID, k int) []pegasus.NodeID {
	if len(ns) > k {
		return ns[:k]
	}
	return ns
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pegasus-query: "+format+"\n", args...)
	os.Exit(1)
}
