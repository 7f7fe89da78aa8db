package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// ReadEdgeList parses a whitespace-separated edge list ("u v" per line).
// Lines starting with '#' or '%' are comments. Node IDs may be arbitrary
// non-negative integers; they are used directly (the node count is the max
// ID + 1). Self-loops and duplicates are removed.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	b := NewBuilder(0)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want at least 2 fields, got %q", lineno, line)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineno, err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineno, err)
		}
		b.AddEdge(NodeID(u), NodeID(v))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// WriteEdgeList writes the graph as "u v" lines (u < v), preceded by a
// comment header.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nodes=%d edges=%d\n", g.NumNodes(), g.NumEdges()); err != nil {
		return err
	}
	var werr error
	g.Edges(func(u, v NodeID) bool {
		if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
			werr = err
			return false
		}
		return true
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// LoadEdgeListFile reads an edge-list graph from a file path.
func LoadEdgeListFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadEdgeList(f)
}

// SaveEdgeListFile writes the graph to a file path in edge-list format.
func SaveEdgeListFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteEdgeList(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
