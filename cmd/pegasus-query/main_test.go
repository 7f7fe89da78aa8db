package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"pegasus"
)

func TestToFloats(t *testing.T) {
	f := toFloats([]int32{0, 5, -1})
	if len(f) != 3 || f[1] != 5 || f[2] != -1 {
		t.Fatalf("toFloats = %v", f)
	}
}

func TestClip(t *testing.T) {
	ns := []pegasus.NodeID{1, 2, 3, 4}
	if got := clip(ns, 2); len(got) != 2 {
		t.Fatalf("clip = %v", got)
	}
	if got := clip(ns, 10); len(got) != 4 {
		t.Fatalf("clip oversized = %v", got)
	}
}

// TestAnswerNodeOutOfRange: every query type, neighbors included, answers
// a node outside the summary with the range error instead of a panic, and
// a node past 2^32 is not truncated into range.
func TestAnswerNodeOutOfRange(t *testing.T) {
	s := pegasus.IdentitySummary(pegasus.GenerateBA(50, 2, 1))
	for _, qtype := range []string{"neighbors", "rwr", "hop", "php"} {
		for _, node := range []uint64{50, 100000, 1<<32 + 3} {
			_, err := answer(io.Discard, s, qtype, node, 10)
			want := fmt.Sprintf("query node %d out of range (|V|=50)", node)
			if err == nil || err.Error() != want {
				t.Errorf("%s node %d: err = %v, want %q", qtype, node, err, want)
			}
		}
	}
	var out bytes.Buffer
	if _, err := answer(&out, s, "neighbors", 49, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "approximate neighbors of 49 (") {
		t.Fatalf("neighbors output = %q", out.String())
	}
}

// TestCompareRefusesOtherGraph: an accuracy check against a graph whose
// node count differs from the summary's fails naming both counts, and one
// against the summarized graph itself scores the exact summary perfectly.
func TestCompareRefusesOtherGraph(t *testing.T) {
	g := pegasus.GenerateBA(50, 2, 1)
	s := pegasus.IdentitySummary(g)
	approx, err := answer(io.Discard, s, "rwr", 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	other := pegasus.GenerateBA(70, 2, 1)
	err = compare(io.Discard, other, "rwr", 3, approx)
	if err == nil || !strings.HasPrefix(err.Error(), "graph has 70 nodes but the summary has 50;") {
		t.Fatalf("mismatched graph: err = %v", err)
	}
	var out bytes.Buffer
	if err := compare(&out, g, "rwr", 3, approx); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "accuracy vs exact: SMAPE=0.0000 Spearman=1.0000\n" {
		t.Fatalf("identity summary scored %q", got)
	}
}
