package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"

	"pegasus"
)

// report is the full record of one run: provenance, inputs, every metric
// and every timing's distribution. The result line printed last is a
// projection of it.
type report struct {
	Workload string   `json:"workload"`
	Deploy   int64    `json:"deploy_seed"`
	Seed     int64    `json:"seed"`
	Seconds  int      `json:"seconds"`
	Traced   bool     `json:"traced"`
	Host     host     `json:"host"`
	Server   settings `json:"server"`
	Inputs   inputRec `json:"inputs"`

	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	Metrics map[string]float64 `json:"metrics"`
	Timings map[string]timing  `json:"timings"`
	defs    []metricDef
}

type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
}

// settings is the deployed server configuration and the traffic shape.
type settings struct {
	Shards       int     `json:"shards"`
	Partition    string  `json:"partition"`
	BudgetRatio  float64 `json:"budget_ratio"`
	CacheEntries int     `json:"cache_entries"`
	PoolSlots    int     `json:"pool_slots"`
	BuildWorkers int     `json:"build_workers"`
	CacheDir     bool    `json:"cache_dir"`
	Conns        int     `json:"conns"`
	RatePerS     float64 `json:"rate_per_s"`
	Hot          bool    `json:"hot"`
	TrafficShare float64 `json:"traffic_share"`
	Setups       int     `json:"setups"`
	Rebuilds     int     `json:"rebuilds"`
}

// inputRec records the seeded inputs, so any claim can be rechecked.
type inputRec struct {
	Nodes       int              `json:"nodes"`
	Edges       int64            `json:"edges"`
	Fingerprint string           `json:"fingerprint"`
	SnapGzBytes int              `json:"snap_gz_bytes"`
	ServerSeed  int64            `json:"server_seed"`
	Targets     []pegasus.NodeID `json:"targets"`
	SwapTargets []pegasus.NodeID `json:"swap_targets"`
	Probes      []pegasus.NodeID `json:"probes"`
	OpenOps     int              `json:"open_ops"`
}

func newReport(c runConfig, in *inputs) *report {
	r := &report{
		Workload: c.w.name, Deploy: c.deploy, Seed: c.seed, Seconds: c.seconds, Traced: c.traced,
		Host: host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), CPU: cpuModel()},
		Server: settings{Shards: shards, Partition: pegasus.PartitionRandom, BudgetRatio: 0.5,
			CacheEntries: 4096, PoolSlots: runtime.GOMAXPROCS(0), BuildWorkers: runtime.GOMAXPROCS(0),
			CacheDir: true, Conns: conns, RatePerS: c.w.rate, Hot: c.w.hot, TrafficShare: c.w.traffic,
			Setups: c.w.setups, Rebuilds: c.w.rebuilds()},
		Inputs: inputRec{Nodes: in.src.NumNodes(), Edges: in.src.NumEdges(), Fingerprint: in.fingerprint,
			SnapGzBytes: len(in.snap), ServerSeed: in.serverSeed, Targets: in.targets,
			SwapTargets: in.swapB, Probes: in.probes},
		Metrics: map[string]float64{},
		Timings: map[string]timing{},
		defs:    endToEnd,
	}
	if c.traced {
		r.defs = perLayer
	}
	return r
}

func (r *report) setMetric(name string, v float64) { r.Metrics[name] = v }

// addTiming records the distribution of samples, which it leaves unchanged.
func (r *report) addTiming(name string, samples []float64) {
	r.Timings[name] = summarize(slices.Clone(samples))
}

// shown are the metrics a run prints: the result line's, plus the
// unbounded end-to-end ones of an untraced run.
func (r *report) shown() []metricDef {
	if r.Traced {
		return r.defs
	}
	return append(slices.Clone(r.defs), unbounded...)
}

// finish settles correctness: every failed operation makes the run
// incorrect, and so does a declared metric that is missing or not finite.
func (r *report) finish(res *results) {
	r.Attempted = res.attempted.Load()
	r.Failed = res.failed.Load()
	res.mu.Lock()
	r.Failures = append(r.Failures, res.failures...)
	res.mu.Unlock()
	for _, d := range r.shown() {
		v, ok := r.Metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.Failures = append(r.Failures, fmt.Sprintf("metric %s not measured", d.name))
			r.Metrics[d.name] = 0
			r.Failed++
		}
	}
	r.Correct = r.Failed == 0
}

// print writes every metric by name with its unit, the timing
// distributions, the failures, and — last — the one-line JSON result.
func (r *report) print(out io.Writer) error {
	fmt.Fprintf(out, "workload %s seed %d traced %v: %d nodes, %d edges, fingerprint %s\n",
		r.Workload, r.Seed, r.Traced, r.Inputs.Nodes, r.Inputs.Edges, r.Inputs.Fingerprint)
	for _, d := range r.shown() {
		layer := ""
		if d.layer != "" {
			layer = d.layer + "; should move "
		}
		fmt.Fprintf(out, "  %-26s %14.6g %-6s %s is better (%s%s)\n", d.name, r.Metrics[d.name], d.unit, d.better, layer, d.note)
	}
	for _, name := range sortedKeys(r.Timings) {
		t := r.Timings[name]
		fmt.Fprintf(out, "  timing %-22s n=%-6d p50=%.6g", name, t.N, t.P50)
		if t.TailPct > 0 {
			fmt.Fprintf(out, " p%g=%.6g", t.TailPct, t.Tail)
		}
		fmt.Fprintln(out)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(out, "  FAILED: %s\n", f)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]val{}}
	for _, d := range r.defs {
		line.Metrics[d.name] = val{r.Metrics[d.name], d.unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", raw)
	return err
}

func (r *report) save(path string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// compare prints the per-metric change from a to b. It refuses result sets
// that are not comparable: another workload, seed, trace mode, graph,
// server configuration or traffic shape.
func compare(out io.Writer, a, b *report) error {
	switch {
	case a.Workload != b.Workload || a.Deploy != b.Deploy || a.Seed != b.Seed || a.Traced != b.Traced || a.Seconds != b.Seconds:
		return fmt.Errorf("not comparable: %s/deploy %d/seed %d/traced %v/%ds vs %s/deploy %d/seed %d/traced %v/%ds",
			a.Workload, a.Deploy, a.Seed, a.Traced, a.Seconds, b.Workload, b.Deploy, b.Seed, b.Traced, b.Seconds)
	case a.Inputs.Fingerprint != b.Inputs.Fingerprint:
		return fmt.Errorf("not comparable: graph fingerprints differ (%s vs %s)", a.Inputs.Fingerprint, b.Inputs.Fingerprint)
	case a.Server != b.Server:
		return fmt.Errorf("not comparable: server configurations differ (%+v vs %+v)", a.Server, b.Server)
	}
	if a.Host != b.Host {
		fmt.Fprintf(out, "warning: hosts differ (%+v vs %+v)\n", a.Host, b.Host)
	}
	for _, name := range sortedKeys(a.Metrics) {
		va, vb := a.Metrics[name], b.Metrics[name]
		delta := math.NaN()
		if va != 0 {
			delta = 100 * (vb - va) / math.Abs(va)
		}
		fmt.Fprintf(out, "%-26s %14.6g -> %-14.6g %+7.2f%%\n", name, va, vb, delta)
	}
	return nil
}

func loadReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
