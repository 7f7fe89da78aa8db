package experiments

import (
	"time"

	"pegasus/internal/datasets"
	"pegasus/internal/graph"
	"pegasus/internal/queries"
	"pegasus/internal/summary"
)

// Fig8 reproduces Fig. 8: (a) summarization time per method and dataset at
// compression ratio 0.5, and (b/c) query time on the resulting summaries for
// breadth-first search (HOP) and RWR, compared with the uncompressed graph.
// Dense summaries (k-GraSS/S2L/SAAGs) should show markedly slower query
// times than PeGaSus's sparse, selectively-added superedges.
func Fig8(sc Scale) (*Table, error) {
	t := &Table{
		Title:  "Fig. 8 — summarization time and per-query time (ratio 0.5)",
		Header: []string{"Dataset", "Method", "SummarizeTime", "BFSQueryTime", "RWRQueryTime"},
	}
	const ratio = 0.5
	for _, d := range datasets.Real() {
		if !sc.wantsDataset(d.Short) {
			continue
		}
		g := d.Load(sc.Graph)
		qs := graph.SampleNodes(g, minInt(sc.Queries, 10), sc.Seed+13)

		// Uncompressed reference row.
		bfsT, rwrT, err := timeGraphQueries(g, qs, sc)
		if err != nil {
			return nil, err
		}
		t.Append(d.Short, "Uncompressed", time.Duration(0), bfsT, rwrT)

		for _, m := range AllMethods {
			if m != MPegasus && m != MSSumM && !sc.wantsBaseline(d.Short) {
				t.Append(d.Short, string(m), "oot", "-", "-")
				continue
			}
			var targets []graph.NodeID
			if m == MPegasus {
				targets = qs
			}
			res, err := summarizeBy(m, g, targets, ratio, sc.Seed)
			if err != nil {
				return nil, err
			}
			bq, rq, err := timeSummaryQueries(res.s, qs, sc)
			if err != nil {
				return nil, err
			}
			t.Append(d.Short, string(m), res.elapsed, bq, rq)
		}
	}
	return t, nil
}

// timeGraphQueries times BFS and RWR per query on the uncompressed graph.
// The RWR session's precompute is made before the clock starts, so the RWR
// time is the iterations alone, as in timeSummaryQueries.
func timeGraphQueries(g *graph.Graph, qs []graph.NodeID, sc Scale) (bfs, rwr time.Duration, err error) {
	sess := queries.NewSession(queries.GraphOracle{G: g})
	start := time.Now()
	for _, q := range qs {
		if _, err = queries.GraphHOP(g, q); err != nil {
			return
		}
	}
	bfs = time.Since(start) / time.Duration(len(qs))
	start = time.Now()
	for _, q := range qs {
		if _, err = sess.RWR(q, sc.RWR); err != nil {
			return
		}
	}
	rwr = time.Since(start) / time.Duration(len(qs))
	return
}

// timeSummaryQueries times BFS and RWR per query on a summary, answering
// RWR through one session made before the clock starts.
func timeSummaryQueries(s *summary.Summary, qs []graph.NodeID, sc Scale) (bfs, rwr time.Duration, err error) {
	sess := queries.NewSummarySession(s)
	start := time.Now()
	for _, q := range qs {
		if _, err = queries.SummaryHOP(s, q); err != nil {
			return
		}
	}
	bfs = time.Since(start) / time.Duration(len(qs))
	start = time.Now()
	for _, q := range qs {
		if _, err = sess.RWR(q, sc.RWR); err != nil {
			return
		}
	}
	rwr = time.Since(start) / time.Duration(len(qs))
	return
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
