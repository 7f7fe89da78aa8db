// Command perfbench is pegasus's end-to-end benchmark. It drives the path a
// user hits — gzip SNAP bytes → ingest → sharded build → the pegasus.NewServer
// handler over loopback HTTP → cached and uncached answers — under one of
// three seeded workloads, from one process. It checks the answers against an
// independent reference, prints every metric by name with its unit, and
// prints as its last line a JSON result; it exits non-zero when any output
// check fails.
//
// An untraced run (--trace 0) reports the end-to-end metrics. A traced run
// (--trace 1) repeats the workload with span timelines requested from the
// server and reports per-layer metrics instead, plus the tracing overhead.
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 16 --trace 0
//	bash perfbench/run.sh -compare old.json new.json
//
// Each run also writes its full record — host, inputs, server
// configuration, metrics and timing distributions — to
// <workdir>/results/<workload>-seed<seed>-trace<0|1>.json; -compare prints
// the per-metric change between two records and refuses records whose
// graph, configuration or traffic differ.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
)

func main() {
	var (
		wname   = flag.String("workload", "", "workload: boot, serve-hot or serve-cold")
		seed    = flag.Int64("seed", 1, "seed the traffic and its arrival schedule derive from")
		deploy  = flag.Int64("deploy-seed", 8, "seed the graph, targets, server seed, swap targets and probe set derive from")
		seconds = flag.Int("seconds", 16, "length of the measured traffic phases")
		trace   = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
		workdir = flag.String("workdir", ".bench_build", "directory for cache dirs and result records")
		cmp     = flag.Bool("compare", false, "compare two result records given as arguments")
	)
	flag.Parse()
	if *cmp {
		if flag.NArg() != 2 {
			fatal(2, "-compare needs two result records")
		}
		a, err := loadReport(flag.Arg(0))
		if err != nil {
			fatal(2, "%v", err)
		}
		b, err := loadReport(flag.Arg(1))
		if err != nil {
			fatal(2, "%v", err)
		}
		if err := compare(os.Stdout, a, b); err != nil {
			fatal(2, "%v", err)
		}
		return
	}
	w, err := workloadByName(*wname)
	if err != nil {
		fatal(2, "%v", err)
	}
	if *trace != 0 && *trace != 1 {
		fatal(2, "--trace must be 0 or 1")
	}
	if *seconds < 1 {
		fatal(2, "--seconds must be positive")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := run(ctx, runConfig{w: w, deploy: *deploy, seed: *seed, seconds: *seconds, traced: *trace == 1, workdir: *workdir})
	if err != nil {
		fatal(2, "%s: %v", w.name, err)
	}
	dir := filepath.Join(*workdir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(2, "%v", err)
	}
	if err := rep.save(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *trace))); err != nil {
		fatal(2, "save record: %v", err)
	}
	if err := rep.print(os.Stdout); err != nil {
		fatal(2, "%v", err)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(code)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
