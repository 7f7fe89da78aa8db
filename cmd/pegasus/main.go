// Command pegasus summarizes a graph from the command line.
//
// Usage:
//
//	pegasus -in graph.txt -ratio 0.5 -targets 3,17,42 -out summary.bin
//
// The input is a whitespace-separated edge list ("u v" per line, '#'
// comments). The output is the summary as a checksummed artifact, the
// format pegasus.EncodeArtifact writes and pegasus.LoadSummary (or the
// pegasus-query tool) reads. With -stats, per-iteration engine telemetry is
// printed to stderr.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"

	"pegasus"
)

func main() {
	var (
		in      = flag.String("in", "", "input edge-list file (required)")
		out     = flag.String("out", "", "output summary file (optional)")
		ratio   = flag.Float64("ratio", 0.5, "compression ratio: budget = ratio x Size(G)")
		bits    = flag.Float64("bits", 0, "absolute bit budget (overrides -ratio when > 0)")
		targets = flag.String("targets", "", "comma-separated target node IDs (empty = non-personalized)")
		alpha   = flag.Float64("alpha", 1.25, "degree of personalization (>= 1)")
		beta    = flag.Float64("beta", 0.1, "adaptive-thresholding parameter (0,1]")
		tmax    = flag.Int("tmax", 20, "maximum iterations")
		seed    = flag.Int64("seed", 0, "random seed")
		ssummF  = flag.Bool("ssumm", false, "run the SSumM baseline instead of PeGaSus")
		lcc     = flag.Bool("lcc", true, "reduce to the largest connected component first")
		stats   = flag.Bool("stats", false, "print per-iteration statistics to stderr")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	g, err := pegasus.LoadGraph(*in)
	if err != nil {
		fatal("load graph: %v", err)
	}
	tgts := parseTargets(*targets)
	if *lcc {
		n := g.NumNodes()
		var ids []pegasus.NodeID
		g, ids = pegasus.LargestComponent(g)
		if tgts, err = componentTargets(tgts, ids); err != nil {
			fatal("%v", err)
		}
		if g.NumNodes() < n {
			fmt.Printf("lcc: kept %d of %d nodes; summary node IDs number the kept nodes in input-ID order\n", g.NumNodes(), n)
		}
	}
	fmt.Printf("input: |V|=%d |E|=%d size=%.0f bits\n", g.NumNodes(), g.NumEdges(), g.SizeBits())

	var res *pegasus.Result
	if *ssummF {
		res, err = pegasus.SummarizeSSumMCtx(ctx, g, pegasus.SSumMConfig{
			BudgetBits: *bits, BudgetRatio: *ratio, MaxIter: *tmax, Seed: *seed,
			Trace: trace(*stats),
		})
	} else {
		res, err = pegasus.SummarizeCtx(ctx, g, pegasus.Config{
			Targets:     tgts,
			Alpha:       *alpha,
			Beta:        *beta,
			MaxIter:     *tmax,
			BudgetBits:  *bits,
			BudgetRatio: *ratio,
			Seed:        *seed,
			Trace:       trace(*stats),
		})
	}
	if err != nil {
		fatal("summarize: %v", err)
	}
	s := res.Summary
	fmt.Printf("summary: |S|=%d |P|=%d size=%.0f bits (ratio %.3f), %d iterations, %d superedges dropped, budget met: %v\n",
		s.NumSupernodes(), s.NumSuperedges(), s.SizeBits(), s.CompressionRatio(g),
		res.Iterations, res.DroppedSuperedges, res.BudgetMet)
	fmt.Print(s.Describe())
	if *out != "" {
		var buf bytes.Buffer
		if err := pegasus.EncodeArtifact(&buf, pegasus.Artifact{Summary: s}); err != nil {
			fatal("encode summary: %v", err)
		}
		if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
			fatal("save summary: %v", err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

func parseTargets(s string) []pegasus.NodeID {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []pegasus.NodeID
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(tok), 10, 32)
		if err != nil {
			fatal("bad target %q: %v", tok, err)
		}
		out = append(out, pegasus.NodeID(v))
	}
	return out
}

// componentTargets translates input node IDs to the IDs of the component
// LargestComponent returned, whose ids[i] is the input ID of its node i (in
// ascending order). A target outside the component is an error naming its
// input ID.
func componentTargets(targets, ids []pegasus.NodeID) ([]pegasus.NodeID, error) {
	var out []pegasus.NodeID
	for _, t := range targets {
		i, ok := slices.BinarySearch(ids, t)
		if !ok {
			return nil, fmt.Errorf("target %d is not in the largest connected component (%d nodes); pass -lcc=false to keep every node", t, len(ids))
		}
		out = append(out, pegasus.NodeID(i))
	}
	return out, nil
}

func trace(enabled bool) func(pegasus.IterStats) {
	if !enabled {
		return nil
	}
	return func(st pegasus.IterStats) {
		fmt.Fprintf(os.Stderr, "iter=%d theta=%.4f |S|=%d |P|=%d size=%.0f merges=%d rejections=%d groups=%d\n",
			st.Iteration, st.Theta, st.NumSuper, st.NumSupered, st.SizeBits, st.Merges, st.Rejections, st.Groups)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pegasus: "+format+"\n", args...)
	os.Exit(1)
}
