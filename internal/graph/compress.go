package graph

import (
	"fmt"
	"io"

	"pegasus/internal/bitio"
)

var compressedMagic = [4]byte{'P', 'G', 'C', '1'}

// WriteCompressed serializes the graph with delta+varint coded adjacency
// lists (each node's sorted neighbor list is gap-encoded). For real-world
// graphs this is typically 3-6x smaller than the in-memory CSR arrays
// (8 bytes per node and per edge) and still loads in one pass.
func WriteCompressed(w io.Writer, g *Graph) error {
	if _, err := w.Write(compressedMagic[:]); err != nil {
		return err
	}
	bw := bitio.NewWriter(w)
	bw.PutUvarint(uint64(g.NumNodes()))
	for u := 0; u < g.NumNodes(); u++ {
		bw.PutDeltas(g.Neighbors(NodeID(u)))
	}
	return bw.Flush()
}

// ReadCompressed deserializes a graph written by WriteCompressed.
func ReadCompressed(r io.Reader) (*Graph, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, err
	}
	if magic != compressedMagic {
		return nil, fmt.Errorf("graph: bad compressed magic %q", magic)
	}
	br := bitio.NewReader(r)
	n := int(br.Uvarint())
	if err := br.Err(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("graph: negative node count")
	}
	offsets := make([]int64, n+1)
	var adj []NodeID
	for u := 0; u < n; u++ {
		ns := br.Deltas(n)
		if err := br.Err(); err != nil {
			return nil, fmt.Errorf("graph: node %d adjacency: %w", u, err)
		}
		for _, v := range ns {
			if int(v) >= n {
				return nil, fmt.Errorf("graph: node %d has out-of-range neighbor %d", u, v)
			}
		}
		adj = append(adj, ns...)
		offsets[u+1] = int64(len(adj))
	}
	g := &Graph{offsets: offsets, adj: adj}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: compressed payload invalid: %w", err)
	}
	return g, nil
}
