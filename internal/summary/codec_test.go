package summary_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pegasus/internal/graph"
	"pegasus/internal/persist"
	"pegasus/internal/summary"
)

// A summary's one serialized form is the persist artifact codec; these tests
// pin that a summary survives it, in memory and through a file.

// codecFixture: 5 nodes in 3 supernodes A={0,1}, B={2,3}, C={4};
// superedges {A,B}, {A,A} (self-loop), {B,C}.
func codecFixture() *summary.Summary {
	return summary.New([]uint32{0, 0, 1, 1, 2}, [][]uint32{{0, 1}, {2}, nil}, nil)
}

// sameSummary fails t unless s2 has the shape and the approximate
// neighborhoods of s.
func sameSummary(t *testing.T, s, s2 *summary.Summary) {
	t.Helper()
	if err := s2.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if s2.NumNodes() != s.NumNodes() || s2.NumSupernodes() != s.NumSupernodes() || s2.NumSuperedges() != s.NumSuperedges() {
		t.Fatalf("round trip changed summary shape: %v, want %v", s2, s)
	}
	for u := range s.NumNodes() {
		if a, b := s.Neighbors(graph.NodeID(u)), s2.Neighbors(graph.NodeID(u)); !slices.Equal(a, b) {
			t.Fatalf("node %d neighborhood %v, want %v", u, b, a)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	s := codecFixture()
	var buf bytes.Buffer
	if err := persist.Encode(&buf, persist.Artifact{Summary: s}); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	a, err := persist.Decode(buf.Bytes())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if a.Summary == nil {
		t.Fatalf("decoded %+v, want a summary artifact", a)
	}
	sameSummary(t, s, a.Summary)
}

func TestFileRoundTrip(t *testing.T) {
	s := codecFixture()
	path := filepath.Join(t.TempDir(), "s.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := persist.Encode(f, persist.Artifact{Summary: s}); err != nil {
		f.Close()
		t.Fatalf("Encode: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a, err := persist.Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if a.Summary == nil {
		t.Fatal("file round trip lost the summary")
	}
	sameSummary(t, s, a.Summary)
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := persist.Decode([]byte("XXXX0123456789")); !errors.Is(err, persist.ErrCorrupt) {
		t.Errorf("bad magic: err = %v, want one wrapping ErrCorrupt", err)
	}
	if _, err := persist.Decode(nil); !errors.Is(err, persist.ErrCorrupt) {
		t.Errorf("empty input: err = %v, want one wrapping ErrCorrupt", err)
	}
}
