// Command pegasus-experiments regenerates the tables and figures of the
// paper's evaluation (§V) on the synthetic dataset stand-ins.
//
// Usage:
//
//	pegasus-experiments -run all                 # everything, default profile
//	pegasus-experiments -run fig7 -profile full  # one experiment, full scale
//	pegasus-experiments -list
//
// Profiles: quick (seconds), default (tens of seconds), full (minutes). The
// ID table in EXPERIMENTS.md maps experiment IDs to the paper's tables and
// figures.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"pegasus/internal/experiments"
)

func main() {
	var (
		run     = flag.String("run", "all", "experiment ID or 'all' (see -list)")
		profile = flag.String("profile", "default", "scale profile: quick | default | full")
		format  = flag.String("format", "table", "output format: table | csv")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.Names() {
			fmt.Println(id)
		}
		return
	}
	sc, ok := experiments.Profiles[*profile]
	if !ok {
		fmt.Fprintf(os.Stderr, "pegasus-experiments: unknown profile %q\n", *profile)
		os.Exit(2)
	}

	ids := []string{*run}
	if *run == "all" {
		ids = experiments.Names()
	} else if strings.Contains(*run, ",") {
		ids = strings.Split(*run, ",")
	}
	for _, id := range ids {
		start := time.Now()
		tab, err := experiments.Run(strings.TrimSpace(id), sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pegasus-experiments: %s: %v\n", id, err)
			os.Exit(1)
		}
		switch *format {
		case "csv":
			fmt.Printf("# %s\n", tab.Title)
			if err := tab.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "pegasus-experiments: %v\n", err)
				os.Exit(1)
			}
			fmt.Println()
		default:
			tab.Fprint(os.Stdout)
			fmt.Printf("(%s, profile %s, %s)\n\n", id, sc.Name, time.Since(start).Round(time.Millisecond))
		}
	}
}
