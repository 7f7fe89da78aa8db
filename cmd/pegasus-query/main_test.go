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
