package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"pegasus"
)

func TestInputsAreSeedDeterministic(t *testing.T) {
	w, err := workloadByName("serve-cold")
	if err != nil {
		t.Fatal(err)
	}
	a, err := makeInputs(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeInputs(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.fingerprint != b.fingerprint || a.serverSeed != b.serverSeed || string(a.snap) != string(b.snap) ||
		!slices.Equal(a.targets, b.targets) || !slices.Equal(a.swapB, b.swapB) || !slices.Equal(a.probes, b.probes) {
		t.Fatal("equal seeds produced different inputs")
	}
	d, err := makeInputs(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.fingerprint == a.fingerprint || slices.Equal(d.probes, a.probes) {
		t.Fatal("the deployment seed must move the graph and the probe set")
	}
}

func TestSwapReplacesExactlyThePart0Targets(t *testing.T) {
	w, _ := workloadByName("serve-hot")
	in, err := makeInputs(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	part := func(ts []pegasus.NodeID, p uint32) []pegasus.NodeID {
		var out []pegasus.NodeID
		for _, x := range ts {
			if in.labels[x] == p {
				out = append(out, x)
			}
		}
		return out
	}
	if !slices.Equal(part(in.targets, 1), part(in.swapB, 1)) {
		t.Fatal("swap changed part-1 targets; a swap must rebuild only shard 0")
	}
	a, b := part(in.targets, 0), part(in.swapB, 0)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("part-0 targets %v swap to %v", a, b)
	}
	for _, x := range b {
		if slices.Contains(a, x) {
			t.Fatalf("swap target %d already in T", x)
		}
	}
}

// BENCHMARK.json and the metric tables here must name the same workloads
// and metrics.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the table %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v vs %s: %s", i, b.Workloads[i], w.name, w.why)
		}
		if rate := fmt.Sprintf("%g req/s", w.rate); !strings.Contains(w.why, rate) {
			t.Errorf("workload %s: its why does not state its rate, %s", w.name, rate)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the table %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		e := b.EndToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end-to-end %d: %+v vs %+v", i, e, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the table %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		e := b.PerLayer[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("per-layer %d: %+v vs %+v", i, e, d)
		}
	}
}

// Swaps are made on the later boots, of which there are setups-1, so
// every workload needs one to measure rebuild_s.
func TestWorkloadShapes(t *testing.T) {
	for _, w := range workloads {
		if w.rebuilds() < 1 {
			t.Errorf("%s: no rebuilds, so rebuild_s is not measured", w.name)
		}
		if w.traffic <= 0 {
			t.Errorf("%s: traffic share %v", w.name, w.traffic)
		}
	}
}
