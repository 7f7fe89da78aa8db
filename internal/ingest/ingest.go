// Package ingest turns real-world edge lists into the engine's CSR graphs at
// scale. It parses the SNAP interchange format — whitespace/tab-separated
// "u v" lines with '#'/'%' comment headers, optionally gzip-compressed —
// in parallel: the input is split into byte ranges aligned to line
// boundaries, each worker scans its range into a private edge buffer, and a
// deterministic parallel merge (block sorts + pairwise merge rounds, then a
// canonical dedup pass) assembles the final graph. Self-loops and duplicate
// edges are eliminated and arbitrary 64-bit node IDs are remapped onto the
// dense [0, n) space the engine requires (ascending by raw ID, so the
// mapping is a pure function of the edge set).
//
// Like the build pipeline (DESIGN.md "The parallel build pipeline"), ingestion
// is bit-identical for every worker count: chunking only changes which
// worker first sees a line, and every downstream step — ID table, remap,
// sort, dedup, CSR assembly — canonicalizes. Malformed input never panics;
// every parse failure wraps the typed ErrFormat (ErrLimit for inputs that
// exceed a configured or representational limit) and reports the smallest
// failing byte offset, which is likewise worker-count independent.
package ingest

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"pegasus/internal/graph"
	"pegasus/internal/par"
)

// ErrFormat is wrapped by every malformed-input failure: non-numeric tokens,
// missing fields, ID overflow, or a corrupt/truncated gzip stream.
var ErrFormat = errors.New("ingest: malformed edge list")

// ErrLimit is wrapped when a structurally valid input exceeds a limit: more
// distinct node IDs than fit a dense uint32 space, or a decompressed size
// above Options.MaxBytes.
var ErrLimit = errors.New("ingest: input exceeds limit")

// gzipMagic is the two-byte gzip stream header (RFC 1952).
var gzipMagic = []byte{0x1f, 0x8b}

// Options configures an ingestion run.
type Options struct {
	// Workers bounds the parse/merge goroutines (0 = GOMAXPROCS). Every
	// worker count produces a bit-identical graph and stats.
	Workers int
	// MaxBytes caps the (decompressed) input size in bytes; 0 means no cap.
	// Exceeding it fails with ErrLimit — the guard against gzip bombs when
	// ingesting untrusted uploads.
	MaxBytes int64
}

// Stats describes what one ingestion run saw and dropped. All counts are
// worker-count independent.
type Stats struct {
	// Lines is the number of data (non-comment, non-blank) lines parsed.
	Lines int64 `json:"lines"`
	// Comments counts '#'/'%' comment lines.
	Comments int64 `json:"comments"`
	// SelfLoops counts dropped u==v lines.
	SelfLoops int64 `json:"self_loops"`
	// Duplicates counts dropped repeat edges (after orientation
	// normalization: "u v" and "v u" are the same undirected edge).
	Duplicates int64 `json:"duplicates"`
	// Nodes and Edges describe the resulting graph.
	Nodes int   `json:"nodes"`
	Edges int64 `json:"edges"`
	// MaxRawID is the largest node ID seen in the input.
	MaxRawID uint64 `json:"max_raw_id"`
	// Remapped reports whether raw IDs required remapping (they were not
	// already exactly the dense set 0..Nodes-1).
	Remapped bool `json:"remapped"`
	// Gzip reports whether the input was gzip-compressed.
	Gzip bool `json:"gzip"`
	// Bytes is the decompressed input size.
	Bytes int64 `json:"bytes"`
}

// Result is an ingested graph plus its provenance.
type Result struct {
	Graph *graph.Graph
	// IDs maps each dense NodeID back to the raw input ID: IDs[i] is the
	// raw ID of node i. IDs is ascending (remapping preserves raw-ID
	// order), and IDs[i] == i for all i iff !Stats.Remapped.
	IDs   []uint64
	Stats Stats
}

// rawEdge is one parsed input edge, orientation-normalized to U < V in raw
// ID space. Remapping is monotone, so the normalization survives it.
type rawEdge struct{ U, V uint64 }

// chunkStats accumulates per-worker counts; all fields are commutative sums,
// so totals are independent of the chunking.
type chunkStats struct {
	lines, comments, selfLoops int64
	maxID                      uint64
}

// parseError records a failure at an absolute byte offset. When several
// chunks fail, the smallest offset wins, so the reported error does not
// depend on the worker count.
type parseError struct {
	off int64
	msg string
}

func (e *parseError) Error() string {
	return fmt.Sprintf("ingest: byte offset %d: %s: %v", e.off, e.msg, ErrFormat)
}

func (e *parseError) Unwrap() error { return ErrFormat }

// ParseFile ingests an edge-list file. Gzip compression is detected from the
// stream content (not the file name), so "graph.txt.gz" and a misnamed
// "graph.txt" both work.
func ParseFile(path string, opt Options) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseBytes(data, opt)
}

// Parse ingests an edge list from r (plain or gzip — detected from the
// leading magic bytes). The reader is drained into memory first: the
// parallel byte-range scan needs random access.
func Parse(r io.Reader, opt Options) (*Result, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ingest: read input: %w", err)
	}
	return ParseBytes(data, opt)
}

// ParseBytes ingests an in-memory edge list (plain or gzip). This is the
// core entry point: everything else funnels here.
func ParseBytes(data []byte, opt Options) (*Result, error) {
	workers := par.Workers(opt.Workers)
	if workers < 1 {
		workers = 1
	}
	wasGzip := false
	if bytes.HasPrefix(data, gzipMagic) {
		plain, err := gunzip(data, opt.MaxBytes)
		if err != nil {
			return nil, err
		}
		data, wasGzip = plain, true
	}
	if opt.MaxBytes > 0 && int64(len(data)) > opt.MaxBytes {
		return nil, fmt.Errorf("ingest: input is %d bytes, cap is %d: %w", len(data), opt.MaxBytes, ErrLimit)
	}

	// Phase 1 — parallel chunked scan. Chunk k covers the lines whose first
	// byte falls in [k, k+1)·len/chunks; boundaries snap forward to the byte
	// after the next '\n', so every line is parsed by exactly one worker.
	chunks := workers
	if chunks > len(data) {
		chunks = len(data)
	}
	if chunks < 1 {
		chunks = 1
	}
	bufs := make([][]rawEdge, chunks)
	stats := make([]chunkStats, chunks)
	errs := make([]*parseError, chunks)
	par.ForEach(workers, chunks, func(_, k int) {
		lo := chunkStart(data, k, chunks)
		hi := chunkStart(data, k+1, chunks)
		bufs[k], stats[k], errs[k] = parseChunk(data[lo:hi], int64(lo))
	})
	var st Stats
	st.Bytes = int64(len(data))
	st.Gzip = wasGzip
	var firstErr *parseError
	for k := 0; k < chunks; k++ {
		if e := errs[k]; e != nil && (firstErr == nil || e.off < firstErr.off) {
			firstErr = e
		}
		st.Lines += stats[k].lines
		st.Comments += stats[k].comments
		st.SelfLoops += stats[k].selfLoops
		if stats[k].maxID > st.MaxRawID {
			st.MaxRawID = stats[k].maxID
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	// Concatenate per-chunk buffers in chunk order. The order is the file
	// order, but nothing downstream depends on it: sort+dedup canonicalize.
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	edges := make([]rawEdge, 0, total)
	for _, b := range bufs {
		edges = append(edges, b...)
	}
	bufs = nil

	// Phase 2 — dense ID table: sort every endpoint, compact to the unique
	// ascending raw-ID list. Ascending order makes the dense mapping a pure
	// function of the edge set (and monotone, preserving U < V).
	ids := make([]uint64, 0, 2*len(edges))
	for _, e := range edges {
		ids = append(ids, e.U, e.V)
	}
	par.SortUint64(ids, workers)
	ids = compactUnique(ids)
	if len(ids) > math.MaxUint32 {
		return nil, fmt.Errorf("ingest: %d distinct node IDs exceed the dense uint32 space: %w", len(ids), ErrLimit)
	}
	n := len(ids)
	st.Remapped = n > 0 && !(ids[0] == 0 && ids[n-1] == uint64(n-1))

	// Phase 3 — remap and pack. Each edge becomes u<<32|v with dense u < v;
	// packed keys sort and compare as plain integers.
	packed := make([]uint64, len(edges))
	if st.Remapped {
		par.Range(workers, len(edges), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				u, _ := slices.BinarySearch(ids, edges[i].U)
				v, _ := slices.BinarySearch(ids, edges[i].V)
				packed[i] = uint64(u)<<32 | uint64(v)
			}
		})
	} else {
		par.Range(workers, len(edges), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				packed[i] = edges[i].U<<32 | edges[i].V
			}
		})
	}
	edges = nil

	// Phase 4 — deterministic parallel merge: block sorts, pairwise merge
	// rounds, then one canonical dedup pass.
	par.SortUint64(packed, workers)
	deduped, dups := dedupSorted(packed)
	st.Duplicates = dups
	st.Edges = int64(len(deduped))
	st.Nodes = n

	// Phase 5 — parallel CSR assembly.
	final := make([]graph.Edge, len(deduped))
	par.Range(workers, len(deduped), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			final[i] = graph.Edge{U: graph.NodeID(deduped[i] >> 32), V: graph.NodeID(deduped[i] & 0xffffffff)}
		}
	})
	g := graph.FromSortedEdges(n, final, workers)
	return &Result{Graph: g, IDs: ids, Stats: st}, nil
}

// gunzip decompresses a gzip stream fully into memory, with maxBytes (0 = no
// cap) bounding the decompressed size. Corrupt or truncated streams fail
// with ErrFormat; oversized ones with ErrLimit.
func gunzip(data []byte, maxBytes int64) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("ingest: gzip header: %v: %w", err, ErrFormat)
	}
	var limit int64 = math.MaxInt64 - 1
	if maxBytes > 0 {
		limit = maxBytes
	}
	var out bytes.Buffer
	nr, err := io.Copy(&out, io.LimitReader(zr, limit+1))
	if err != nil {
		return nil, fmt.Errorf("ingest: gzip stream: %v: %w", err, ErrFormat)
	}
	if nr > limit {
		return nil, fmt.Errorf("ingest: decompressed input exceeds %d bytes: %w", maxBytes, ErrLimit)
	}
	if err := zr.Close(); err != nil {
		return nil, fmt.Errorf("ingest: gzip trailer: %v: %w", err, ErrFormat)
	}
	return out.Bytes(), nil
}

// chunkStart returns the byte offset where chunk k of `chunks` begins: the
// byte after the first '\n' at or beyond the proportional split point
// (chunk 0 starts at 0; a chunk whose split point lands beyond the last
// newline is empty).
func chunkStart(data []byte, k, chunks int) int {
	if k <= 0 {
		return 0
	}
	if k >= chunks {
		return len(data)
	}
	off := int(int64(k) * int64(len(data)) / int64(chunks))
	if off >= len(data) {
		return len(data)
	}
	nl := bytes.IndexByte(data[off:], '\n')
	if nl < 0 {
		return len(data)
	}
	return off + nl + 1
}

// parseChunk scans one byte range (whole lines) into an edge buffer. base is
// the chunk's absolute offset, used only for error reporting.
func parseChunk(data []byte, base int64) ([]rawEdge, chunkStats, *parseError) {
	var st chunkStats
	var out []rawEdge
	for pos := 0; pos < len(data); {
		end := bytes.IndexByte(data[pos:], '\n')
		var line []byte
		next := len(data)
		if end >= 0 {
			line = data[pos : pos+end]
			next = pos + end + 1
		} else {
			line = data[pos:]
		}
		if ln := len(line); ln > 0 && line[ln-1] == '\r' {
			line = line[:ln-1] // CRLF
		}
		i, n := 0, len(line)
		for i < n && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		switch {
		case i == n: // blank
		case line[i] == '#' || line[i] == '%':
			st.comments++
		default:
			u, ui, perr := parseUint(line, i, base+int64(pos))
			if perr != nil {
				return nil, st, perr
			}
			if ui == n || (line[ui] != ' ' && line[ui] != '\t') {
				return nil, st, &parseError{off: base + int64(pos) + int64(ui), msg: "want two whitespace-separated node IDs"}
			}
			j := ui
			for j < n && (line[j] == ' ' || line[j] == '\t') {
				j++
			}
			v, vi, perr := parseUint(line, j, base+int64(pos))
			if perr != nil {
				return nil, st, perr
			}
			// Anything after the second ID must be separated: extra columns
			// (SNAP timestamps, weights) are tolerated and ignored.
			if vi < n && line[vi] != ' ' && line[vi] != '\t' {
				return nil, st, &parseError{off: base + int64(pos) + int64(vi), msg: fmt.Sprintf("trailing garbage %q after node ID", line[vi])}
			}
			st.lines++
			if u > st.maxID {
				st.maxID = u
			}
			if v > st.maxID {
				st.maxID = v
			}
			if u == v {
				st.selfLoops++
			} else {
				if u > v {
					u, v = v, u
				}
				out = append(out, rawEdge{U: u, V: v})
			}
		}
		pos = next
	}
	return out, st, nil
}

// parseUint parses a decimal uint64 from line starting at i, returning the
// value and the index one past its last digit. lineOff is the line's
// absolute byte offset.
func parseUint(line []byte, i int, lineOff int64) (uint64, int, *parseError) {
	if i >= len(line) || line[i] < '0' || line[i] > '9' {
		got := "end of line"
		if i < len(line) {
			got = fmt.Sprintf("%q", line[i])
		}
		return 0, 0, &parseError{off: lineOff + int64(i), msg: "want a decimal node ID, got " + got}
	}
	var v uint64
	for ; i < len(line) && line[i] >= '0' && line[i] <= '9'; i++ {
		d := uint64(line[i] - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, 0, &parseError{off: lineOff + int64(i), msg: "node ID overflows uint64"}
		}
		v = v*10 + d
	}
	return v, i, nil
}

// compactUnique removes adjacent duplicates from a sorted slice in place.
func compactUnique(s []uint64) []uint64 {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// dedupSorted compacts a sorted packed-edge slice in place and counts the
// dropped duplicates.
func dedupSorted(s []uint64) ([]uint64, int64) {
	out := s[:0]
	var dups int64
	for i, v := range s {
		if i > 0 && v == s[i-1] {
			dups++
			continue
		}
		out = append(out, v)
	}
	return out, dups
}
