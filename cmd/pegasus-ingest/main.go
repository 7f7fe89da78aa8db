// Command pegasus-ingest loads a real-world SNAP edge list — plain or
// gzip-compressed, with comments, duplicate edges, self-loops and sparse
// node IDs — through the parallel streaming ingester and writes the
// resulting graph as a clean edge list (the default -format edgelist, which
// pegasus -in, pegasus-query -graph, pegasus-partition -in and
// pegasus-serve -graph read) or as a SNAP file with a comment header. It is
// the offline preprocessing step for serving real graphs: run it once, then
// point pegasus-serve -graph at the output.
//
// Usage:
//
//	pegasus-ingest -in web-Stanford.txt.gz -out web-stanford.txt
//	pegasus-ingest -in edges.txt -format snap -out clean.snap
//	pegasus-ingest -in edges.txt.gz -verify -stats
//
// The ingester is bit-identical for every -workers value; -verify re-ingests
// sequentially and fails if the parallel result differs (the same invariant
// the scale-tagged smoke test checks at 10^5 nodes).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"pegasus"
)

func main() {
	var (
		in      = flag.String("in", "", "input edge list (plain or .gz; '#'/'%' comments; required)")
		out     = flag.String("out", "", "output graph file (empty: parse and report only)")
		format  = flag.String("format", "edgelist", "output format: edgelist | snap")
		workers = flag.Int("workers", 0, "parse/merge goroutines (0 = GOMAXPROCS; result is identical for any value)")
		maxMB   = flag.Int64("max-mb", 0, "cap the (decompressed) input size in MiB (0 = unlimited)")
		verify  = flag.Bool("verify", false, "re-ingest sequentially and fail unless the parallel result is bit-identical")
		stats   = flag.Bool("stats", false, "print the full ingestion stats as JSON")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "pegasus-ingest: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	if *format != "edgelist" && *format != "snap" {
		fmt.Fprintf(os.Stderr, "pegasus-ingest: unknown -format %q (want edgelist | snap)\n", *format)
		flag.Usage()
		os.Exit(2)
	}

	opt := pegasus.IngestOptions{Workers: *workers, MaxBytes: *maxMB << 20}
	start := time.Now()
	res, err := pegasus.IngestEdgeListFile(*in, opt)
	if err != nil {
		fatal("%v", err)
	}
	elapsed := time.Since(start)
	st := res.Stats
	fmt.Fprintf(os.Stderr,
		"ingested %s in %v: |V|=%d |E|=%d (%d lines, %d comments; dropped %d self-loops, %d duplicates; remapped=%v, gzip=%v)\n",
		*in, elapsed.Round(time.Millisecond), st.Nodes, st.Edges, st.Lines, st.Comments,
		st.SelfLoops, st.Duplicates, st.Remapped, st.Gzip)
	if *stats {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(st); err != nil {
			fatal("encode stats: %v", err)
		}
	}

	if *verify {
		seq, err := pegasus.IngestEdgeListFile(*in, pegasus.IngestOptions{Workers: 1, MaxBytes: opt.MaxBytes})
		if err != nil {
			fatal("verify re-ingest: %v", err)
		}
		a, b := pegasus.GraphFingerprint(res.Graph), pegasus.GraphFingerprint(seq.Graph)
		if a != b || seq.Stats != st {
			fatal("verify: parallel (workers=%d) and sequential ingests disagree — determinism broken", *workers)
		}
		fmt.Fprintf(os.Stderr, "verify: fingerprint %s matches the sequential ingest\n", a[:16])
	}

	if *out == "" {
		return
	}
	if err := write(*out, *format, res.Graph); err != nil {
		fatal("write %s: %v", *out, err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%s)\n", *out, *format)
}

// write saves g to path as an edge list or, for format "snap", as a SNAP
// file.
func write(path, format string, g *pegasus.Graph) error {
	if format == "edgelist" {
		return pegasus.SaveGraph(path, g)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pegasus.WriteSNAP(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pegasus-ingest: "+format+"\n", args...)
	os.Exit(1)
}
