package graph

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestReadEdgeList(t *testing.T) {
	in := `# a comment
% another comment
0 1
1 2 extra-ignored
2 0
3 3
1 0
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", g.NumNodes())
	}
	if g.NumEdges() != 3 { // self-loop and duplicate dropped
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, err := ReadEdgeList(strings.NewReader("0\n")); err == nil {
		t.Error("want error for single-field line")
	}
	if _, err := ReadEdgeList(strings.NewReader("a b\n")); err == nil {
		t.Error("want error for non-numeric IDs")
	}
	if _, err := ReadEdgeList(strings.NewReader("1 -2\n")); err == nil {
		t.Error("want error for negative ID")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := testGraph(t)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed graph: %v -> %v", g, g2)
	}
}

func TestEdgeListFileRoundTrip(t *testing.T) {
	g := testGraph(t)
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := SaveEdgeListFile(path, g); err != nil {
		t.Fatalf("SaveEdgeListFile: %v", err)
	}
	g2, err := LoadEdgeListFile(path)
	if err != nil {
		t.Fatalf("LoadEdgeListFile: %v", err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("file round trip changed edges: %d -> %d", g.NumEdges(), g2.NumEdges())
	}
}
