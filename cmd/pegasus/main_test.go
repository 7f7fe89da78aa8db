package main

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"pegasus"
)

func TestParseTargets(t *testing.T) {
	if got := parseTargets(""); got != nil {
		t.Fatalf("empty spec = %v, want nil", got)
	}
	if got := parseTargets("  "); got != nil {
		t.Fatalf("blank spec = %v, want nil", got)
	}
	got := parseTargets("1, 2,42")
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 42 {
		t.Fatalf("parseTargets = %v", got)
	}
}

func TestTraceNilWhenDisabled(t *testing.T) {
	if trace(false) != nil {
		t.Fatal("disabled trace should be nil")
	}
	if trace(true) == nil {
		t.Fatal("enabled trace should be non-nil")
	}
}

// TestComponentTargets: the component of 2-3-4-5-6 keeps input IDs 2..6 as
// component IDs 0..4, so input target 6 is component node 4; a target the
// component dropped is refused by its input ID.
func TestComponentTargets(t *testing.T) {
	ids := []pegasus.NodeID{2, 3, 4, 5, 6}
	got, err := componentTargets([]pegasus.NodeID{6, 2, 4}, ids)
	if err != nil || !slices.Equal(got, []pegasus.NodeID{4, 0, 2}) {
		t.Fatalf("componentTargets = %v, %v; want [4 0 2]", got, err)
	}
	if got, err := componentTargets(nil, ids); err != nil || got != nil {
		t.Fatalf("no targets = %v, %v; want nil", got, err)
	}
	for _, bad := range []pegasus.NodeID{0, 1, 7} {
		_, err := componentTargets([]pegasus.NodeID{3, bad}, ids)
		if err == nil || !strings.HasPrefix(err.Error(), fmt.Sprintf("target %d is not in the largest connected component", bad)) {
			t.Errorf("target %d: err = %v", bad, err)
		}
	}
}
