// Command pegasus-ingest loads a real-world SNAP edge list — plain or
// gzip-compressed, with comments, duplicate edges, self-loops and sparse
// node IDs — through the parallel streaming ingester and writes the
// resulting CSR graph in one of the engine's formats. It is the offline
// preprocessing step for serving real graphs: run it once with
// -format edgelist, then point pegasus-serve -graph at the output.
//
// Usage:
//
//	pegasus-ingest -in web-Stanford.txt.gz -out web-stanford.pgc
//	pegasus-ingest -in edges.txt -format edgelist -out clean.txt
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
		format  = flag.String("format", "compressed", "output format: compressed (delta+varint CSR) | edgelist | snap")
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
	if *format == "edgelist" {
		if err := pegasus.SaveGraph(*out, res.Graph); err != nil {
			fatal("write %s: %v", *out, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%s)\n", *out, *format)
		return
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal("%v", err)
	}
	switch *format {
	case "compressed":
		err = pegasus.WriteGraphCompressed(f, res.Graph)
	case "snap":
		err = pegasus.WriteSNAP(f, res.Graph)
	default:
		fatal("unknown -format %q (want compressed | edgelist | snap)", *format)
	}
	if err != nil {
		f.Close()
		fatal("write %s: %v", *out, err)
	}
	if err := f.Close(); err != nil {
		fatal("close %s: %v", *out, err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%s)\n", *out, *format)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pegasus-ingest: "+format+"\n", args...)
	os.Exit(1)
}
