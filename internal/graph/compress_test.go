package graph

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCompressedRoundTrip(t *testing.T) {
	g := testGraph(t)
	var buf bytes.Buffer
	if err := WriteCompressed(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadCompressed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("compressed round trip changed graph shape")
	}
	for u := 0; u < g.NumNodes(); u++ {
		a, b := g.Neighbors(NodeID(u)), g2.Neighbors(NodeID(u))
		if len(a) != len(b) {
			t.Fatalf("node %d adjacency changed", u)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d adjacency changed", u)
			}
		}
	}
}

func TestCompressedSmallerThanBinary(t *testing.T) {
	// A consecutive-ID-heavy graph compresses well under gap coding.
	b := NewBuilder(2000)
	rng := rand.New(rand.NewSource(1))
	for u := 0; u < 1999; u++ {
		b.AddEdge(NodeID(u), NodeID(u+1))
		if rng.Intn(3) == 0 {
			b.AddEdge(NodeID(u), NodeID(rng.Intn(2000)))
		}
	}
	g := b.Build()
	var comp bytes.Buffer
	if err := WriteCompressed(&comp, g); err != nil {
		t.Fatal(err)
	}
	// The CSR arrays themselves: int64 offsets for |V|+1 nodes and two
	// 4-byte adjacency entries per undirected edge.
	csr := 8*(g.NumNodes()+1) + 8*int(g.NumEdges())
	if comp.Len() >= csr {
		t.Fatalf("compressed %d bytes not smaller than the CSR arrays' %d", comp.Len(), csr)
	}
	t.Logf("compressed %d vs CSR %d bytes (%.1fx)", comp.Len(), csr, float64(csr)/float64(comp.Len()))
}

func TestCompressedRejectsGarbage(t *testing.T) {
	if _, err := ReadCompressed(bytes.NewReader([]byte("XXXXgarbage"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Truncations of a valid payload must be detected.
	g := testGraph(t)
	var buf bytes.Buffer
	if err := WriteCompressed(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 4; cut < len(full); cut += 2 {
		if _, err := ReadCompressed(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestPropertyCompressedRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 80, 300)
		var buf bytes.Buffer
		if err := WriteCompressed(&buf, g); err != nil {
			return false
		}
		g2, err := ReadCompressed(&buf)
		if err != nil {
			return false
		}
		if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
			return false
		}
		return g2.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
