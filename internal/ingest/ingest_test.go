package ingest

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"pegasus/internal/gen"
	"pegasus/internal/graph"
	"pegasus/internal/par"
)

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// sameGraph reports whether got is a valid graph with want's node count
// and edge list, which for valid graphs means identical CSR arrays — the
// bit-identity yardstick used throughout this suite.
func sameGraph(t *testing.T, got, want *graph.Graph) bool {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("invalid CSR: %v", err)
	}
	return got.NumNodes() == want.NumNodes() && slices.Equal(got.EdgeList(), want.EdgeList())
}

func TestParseBasic(t *testing.T) {
	in := "# SNAP-style header\r\n" +
		"% matrix-market-style comment\n" +
		"\n" +
		"10\t30\n" +
		"30 10\n" + // duplicate, reversed orientation
		"  20  10  \n" +
		"20\t20\n" + // self-loop
		"10 30 1234567890\n" + // extra column (timestamp) ignored; duplicate
		"30\t40\r\n"
	res, err := ParseBytes([]byte(in), Options{Workers: 2})
	if err != nil {
		t.Fatalf("ParseBytes: %v", err)
	}
	st := res.Stats
	if st.Lines != 6 || st.Comments != 2 || st.SelfLoops != 1 || st.Duplicates != 2 {
		t.Fatalf("stats = %+v, want 6 lines / 2 comments / 1 self-loop / 2 duplicates", st)
	}
	if st.Nodes != 4 || st.Edges != 3 {
		t.Fatalf("got %d nodes %d edges, want 4 / 3", st.Nodes, st.Edges)
	}
	if !st.Remapped || st.MaxRawID != 40 {
		t.Fatalf("Remapped=%v MaxRawID=%d, want true / 40", st.Remapped, st.MaxRawID)
	}
	wantIDs := []uint64{10, 20, 30, 40}
	for i, id := range wantIDs {
		if res.IDs[i] != id {
			t.Fatalf("IDs = %v, want %v", res.IDs, wantIDs)
		}
	}
	g := res.Graph
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Dense graph: 10→0, 20→1, 30→2, 40→3; edges {0,2},{0,1},{2,3}.
	for _, e := range []graph.Edge{{U: 0, V: 2}, {U: 0, V: 1}, {U: 2, V: 3}} {
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("missing edge %v in %v", e, g.EdgeList())
		}
	}
}

func TestParseDenseIDsNotRemapped(t *testing.T) {
	res, err := ParseBytes([]byte("0 1\n1 2\n2 0\n"), Options{})
	if err != nil {
		t.Fatalf("ParseBytes: %v", err)
	}
	if res.Stats.Remapped {
		t.Fatalf("dense 0..2 input reported Remapped")
	}
	for i, id := range res.IDs {
		if id != uint64(i) {
			t.Fatalf("IDs[%d] = %d, want identity", i, id)
		}
	}
}

func TestParseEmptyAndCommentOnly(t *testing.T) {
	for _, in := range []string{"", "\n\n", "# only comments\n% more\n"} {
		res, err := ParseBytes([]byte(in), Options{Workers: 3})
		if err != nil {
			t.Fatalf("ParseBytes(%q): %v", in, err)
		}
		if res.Stats.Nodes != 0 || res.Stats.Edges != 0 || res.Graph.NumNodes() != 0 {
			t.Fatalf("ParseBytes(%q) = %+v, want empty graph", in, res.Stats)
		}
	}
}

func TestParseGzip(t *testing.T) {
	plain := []byte("# header\n1 2\n2 3\n")
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write(plain); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	rz, err := ParseBytes(zbuf.Bytes(), Options{})
	if err != nil {
		t.Fatalf("gzip ParseBytes: %v", err)
	}
	rp, err := ParseBytes(plain, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rz.Stats.Gzip || rp.Stats.Gzip {
		t.Fatalf("Gzip flags: compressed=%v plain=%v", rz.Stats.Gzip, rp.Stats.Gzip)
	}
	if !sameGraph(t, rz.Graph, rp.Graph) {
		t.Fatal("gzip and plain inputs produced different graphs")
	}
}

func TestParseErrorsAreTyped(t *testing.T) {
	zbomb := func() []byte { // valid header, truncated stream
		var b bytes.Buffer
		zw := gzip.NewWriter(&b)
		_, _ = zw.Write([]byte("1 2\n2 3\n4 5\n"))
		_ = zw.Close()
		return b.Bytes()[:b.Len()-5]
	}()
	cases := []struct {
		name string
		in   []byte
		opt  Options
		want error
	}{
		{"alpha token", []byte("1 2\nfoo bar\n"), Options{}, ErrFormat},
		{"missing field", []byte("12\n"), Options{}, ErrFormat},
		{"negative", []byte("-1 2\n"), Options{}, ErrFormat},
		{"junk after number", []byte("12x 13\n"), Options{}, ErrFormat},
		{"trailing garbage", []byte("12 13x\n"), Options{}, ErrFormat},
		{"uint64 overflow", []byte("99999999999999999999999 1\n"), Options{}, ErrFormat},
		{"truncated gzip", zbomb, Options{}, ErrFormat},
		{"bad gzip body", append([]byte{0x1f, 0x8b}, []byte("garbage")...), Options{}, ErrFormat},
		{"plain over cap", []byte("1 2\n2 3\n"), Options{MaxBytes: 4}, ErrLimit},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseBytes(tc.in, tc.opt)
			if err == nil {
				t.Fatalf("ParseBytes(%q) succeeded, want %v", tc.in, tc.want)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("ParseBytes(%q) = %v, not typed %v", tc.in, err, tc.want)
			}
		})
	}
}

func TestParseErrorOffsetWorkerIndependent(t *testing.T) {
	// Two malformed lines in different chunks: every worker count must
	// report the earlier one.
	var sb strings.Builder
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&sb, "%d %d\n", i, i+1)
	}
	in := []byte(sb.String())
	bad := []byte("BAD LINE\n")
	in = append(in[:len(in)/3], append(append([]byte{}, bad...), append(in[len(in)/3:], bad...)...)...)
	var want string
	for _, w := range []int{1, 2, 3, 8} {
		_, err := ParseBytes(in, Options{Workers: w})
		if err == nil {
			t.Fatalf("workers=%d: no error", w)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Fatalf("workers=%d error %q differs from workers=1 error %q", w, err, want)
		}
	}
}

// TestParsedMatchesBuilder is the PR's core property: for random graphs
// rendered as messy edge-list text, the parallel ingester at every worker
// count must produce a CSR bit-identical to feeding the same edge set
// through graph.Builder one edge at a time.
func TestParsedMatchesBuilder(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(400)
		// BA graphs are connected, so every node appears in some edge and
		// the ingester's dense remap is the identity — the Builder reference
		// (which declares n nodes up front) then describes the same graph.
		g := gen.BarabasiAlbert(n, 2+rng.Intn(4), seed)

		// The reference: Builder fed one edge at a time.
		b := graph.NewBuilder(g.NumNodes())
		g.Edges(func(u, v graph.NodeID) bool {
			b.AddEdge(u, v)
			return true
		})
		want := b.Build()

		// Messy rendering: shuffled order, random orientation, duplicate
		// lines, self-loops, comments, CRLF, mixed separators.
		edges := g.EdgeList()
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		var sb strings.Builder
		sb.WriteString("# messy render\n")
		seps := []string{" ", "\t", "  ", " \t "}
		for _, e := range edges {
			u, v := uint64(e.U), uint64(e.V)
			if rng.Intn(2) == 0 {
				u, v = v, u
			}
			eol := "\n"
			if rng.Intn(4) == 0 {
				eol = "\r\n"
			}
			fmt.Fprintf(&sb, "%d%s%d%s", u, seps[rng.Intn(len(seps))], v, eol)
			if rng.Intn(8) == 0 { // duplicate line
				fmt.Fprintf(&sb, "%d %d\n", e.U, e.V)
			}
			if rng.Intn(16) == 0 { // self-loop
				fmt.Fprintf(&sb, "%d %d\n", u, u)
			}
			if rng.Intn(16) == 0 {
				sb.WriteString("# interleaved comment\n")
			}
		}
		in := []byte(sb.String())

		var first *Result
		for _, w := range []int{1, 2, 8} {
			res, err := ParseBytes(in, Options{Workers: w})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, w, err)
			}
			if err := res.Graph.Validate(); err != nil {
				t.Fatalf("seed %d workers %d: invalid CSR: %v", seed, w, err)
			}
			if !sameGraph(t, res.Graph, want) {
				t.Fatalf("seed %d workers %d: ingested CSR differs from graph.Builder reference", seed, w)
			}
			if first == nil {
				first = res
			} else if res.Stats != first.Stats {
				t.Fatalf("seed %d workers %d: stats %+v differ from workers=1 stats %+v", seed, w, res.Stats, first.Stats)
			}
		}
	}
}

// TestParallelMergeRace drives the parallel parse+merge with many workers on
// a shared input; run under -race (CI does) it covers the merge's goroutine
// interactions.
func TestParallelMergeRace(t *testing.T) {
	g := gen.BarabasiAlbert(3000, 4, 7)
	var buf bytes.Buffer
	if err := WriteSNAP(&buf, g); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8, 16} {
		res, err := ParseBytes(buf.Bytes(), Options{Workers: w})
		if err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		if !sameGraph(t, res.Graph, g) {
			t.Fatalf("workers %d: merge produced a different graph", w)
		}
	}
}

func TestSNAPRoundTrip(t *testing.T) {
	g := gen.PlantedPartition(gen.SBMConfig{Nodes: 500, Communities: 5, AvgDegree: 8, MixingP: 0.1}, 11)
	var buf bytes.Buffer
	if err := WriteSNAP(&buf, g); err != nil {
		t.Fatalf("WriteSNAP: %v", err)
	}
	res, err := ParseBytes(buf.Bytes(), Options{Workers: 4})
	if err != nil {
		t.Fatalf("ParseBytes: %v", err)
	}
	if res.Stats.Remapped {
		t.Fatal("round-trip of dense graph required remapping")
	}
	if !sameGraph(t, res.Graph, g) {
		t.Fatal("Parse(WriteSNAP(g)) != g")
	}
	if res.Stats.Edges != g.NumEdges() || res.Stats.Nodes != g.NumNodes() {
		t.Fatalf("stats %d/%d, want %d/%d", res.Stats.Nodes, res.Stats.Edges, g.NumNodes(), g.NumEdges())
	}
}

func TestParseFileGzipOnDisk(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 3)
	var plain bytes.Buffer
	if err := WriteSNAP(&plain, g); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := dir + "/g.txt.gz"
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write(plain.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(path, zbuf.Bytes()); err != nil {
		t.Fatal(err)
	}
	res, err := ParseFile(path, Options{})
	if err != nil {
		t.Fatalf("ParseFile: %v", err)
	}
	if !res.Stats.Gzip {
		t.Fatal("gzip not detected")
	}
	if !sameGraph(t, res.Graph, g) {
		t.Fatal("ParseFile(gzip) != original graph")
	}
}

func TestSortUint64MatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, size := range []int{0, 1, 1000, 1 << 17, 1<<18 + 12345} {
		a := make([]uint64, size)
		for i := range a {
			a[i] = rng.Uint64() % 1000
		}
		b := append([]uint64(nil), a...)
		par.SortUint64(a, 8)
		par.SortUint64(b, 1)
		if !equalU64(a, b) {
			t.Fatalf("size %d: parallel sort differs from sequential", size)
		}
		for i := 1; i < len(a); i++ {
			if a[i-1] > a[i] {
				t.Fatalf("size %d: not sorted at %d", size, i)
			}
		}
	}
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
