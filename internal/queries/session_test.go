package queries

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"pegasus/internal/gen"
	"pegasus/internal/graph"
	"pegasus/internal/summary"
)

func sessionTestGraph(t *testing.T) (*graph.Graph, *summary.Summary) {
	t.Helper()
	g := gen.PlantedPartition(gen.SBMConfig{
		Nodes: 120, Communities: 3, AvgDegree: 8, MixingP: 0.1,
	}, 41)
	s := summary.Identity(g)
	return g, s
}

// TestSessionMatchesPlainCalls: a session answering many queries back to
// back must return exactly (bit-identical, not approximately) what the
// plain one-shot entry points return — no call may leak state into the
// next, and the shared wdeg precompute must not change results.
func TestSessionMatchesPlainCalls(t *testing.T) {
	g, s := sessionTestGraph(t)
	o := GraphOracle{g}

	oSess := NewSession(o)
	sSess := NewSummarySession(s)
	rcfg := RWRConfig{}
	pcfg := PHPConfig{}
	for _, q := range []graph.NodeID{0, 7, 7, 31, 119} {
		gotR, err := oSess.RWR(q, rcfg)
		if err != nil {
			t.Fatal(err)
		}
		wantR, err := RWR(o, q, rcfg)
		if err != nil {
			t.Fatal(err)
		}
		assertExactEqual(t, "oracle RWR", q, gotR, wantR)

		// Interleave PHP on the same session, which shares its precompute
		// across the two query types.
		gotP, err := oSess.PHP(q, pcfg)
		if err != nil {
			t.Fatal(err)
		}
		wantP, err := PHP(o, q, pcfg)
		if err != nil {
			t.Fatal(err)
		}
		assertExactEqual(t, "oracle PHP", q, gotP, wantP)

		gotSR, err := sSess.RWR(q, rcfg)
		if err != nil {
			t.Fatal(err)
		}
		wantSR, err := SummaryRWR(s, q, rcfg)
		if err != nil {
			t.Fatal(err)
		}
		assertExactEqual(t, "summary RWR", q, gotSR, wantSR)

		gotSP, err := sSess.PHP(q, pcfg)
		if err != nil {
			t.Fatal(err)
		}
		wantSP, err := SummaryPHP(s, q, pcfg)
		if err != nil {
			t.Fatal(err)
		}
		assertExactEqual(t, "summary PHP", q, gotSP, wantSP)
	}
}

func assertExactEqual(t *testing.T, label string, q graph.NodeID, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s q=%d: length %d, want %d", label, q, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s q=%d: index %d = %g, want %g (session diverged from one-shot)",
				label, q, i, got[i], want[i])
		}
	}
}

// TestSessionResultsOutliveSession: each call must return an independent
// vector; a later query on the same session must not mutate an earlier
// result.
func TestSessionResultsOutliveSession(t *testing.T) {
	g, _ := sessionTestGraph(t)
	sess := NewSession(GraphOracle{g})
	first, err := sess.RWR(3, RWRConfig{})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]float64(nil), first...)
	if _, err := sess.RWR(99, RWRConfig{}); err != nil {
		t.Fatal(err)
	}
	for i := range snapshot {
		if first[i] != snapshot[i] {
			t.Fatalf("result aliased session scratch: index %d changed %g -> %g",
				i, snapshot[i], first[i])
		}
	}
}

// TestRWRBatchMatchesSingles: a batch of RWR queries answered by a loop
// over one session — the pattern that replaced the batch-only entry points —
// must return, once the whole batch is collected, exactly what the one-shot
// entry points return on both evaluators, repeats included.
func TestRWRBatchMatchesSingles(t *testing.T) {
	g, s := sessionTestGraph(t)
	qs := []graph.NodeID{5, 0, 5, 60, 119}
	cfg := RWRConfig{Eps: 1e-12, MaxIter: 20}

	got := answerBatch(t, NewSession(GraphOracle{g}).RWR, qs, cfg)
	for i, q := range qs {
		want, err := RWR(GraphOracle{g}, q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertExactEqual(t, "oracle RWR batch", q, got[i], want)
	}

	gotS := answerBatch(t, NewSummarySession(s).RWR, qs, cfg)
	for i, q := range qs {
		want, err := SummaryRWR(s, q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertExactEqual(t, "summary RWR batch", q, gotS[i], want)
	}
}

// TestPHPBatchMatchesSingleCalls: the PHP counterpart of
// TestRWRBatchMatchesSingles, on both evaluators.
func TestPHPBatchMatchesSingleCalls(t *testing.T) {
	g, s := sessionTestGraph(t)
	o := GraphOracle{g}
	qs := []graph.NodeID{0, 7, 7, 31, 119}
	cfg := PHPConfig{}

	got := answerBatch(t, NewSession(o).PHP, qs, cfg)
	for i, q := range qs {
		want, err := PHP(o, q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertExactEqual(t, "oracle PHP batch", q, got[i], want)
	}

	gotS := answerBatch(t, NewSummarySession(s).PHP, qs, cfg)
	for i, q := range qs {
		want, err := SummaryPHP(s, q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertExactEqual(t, "summary PHP batch", q, gotS[i], want)
	}
}

// answerBatch answers qs in order with one session method and returns every
// result, so the caller compares each answer only after the later ones ran.
func answerBatch[C any](t *testing.T, query func(graph.NodeID, C) ([]float64, error), qs []graph.NodeID, cfg C) [][]float64 {
	t.Helper()
	out := make([][]float64, len(qs))
	for i, q := range qs {
		var err error
		if out[i], err = query(q, cfg); err != nil {
			t.Fatalf("batch item %d (node %d): %v", i, q, err)
		}
	}
	return out
}

// TestSessionSharedAcrossGoroutines: one session per evaluator, shared by
// 8 goroutines that interleave RWR and PHP queries, must answer every query
// bit-identically to a one-shot call. Sessions hold only per-artifact
// precompute and allocate their iteration vectors per call, so under -race
// this is also the data-race check of a session shared by concurrent
// requests (the serving layer keeps one per shard).
func TestSessionSharedAcrossGoroutines(t *testing.T) {
	g, s := goldenFixture(t)
	qs := []graph.NodeID{0, 3, 57, 89, 150, 152}
	for _, ev := range []struct {
		name string
		sess Session
		rwr  func(graph.NodeID) ([]float64, error)
		php  func(graph.NodeID) ([]float64, error)
	}{
		{"graph", NewSession(GraphOracle{g}),
			func(q graph.NodeID) ([]float64, error) { return GraphRWR(g, q, RWRConfig{}) },
			func(q graph.NodeID) ([]float64, error) { return GraphPHP(g, q, PHPConfig{}) }},
		{"summary", NewSummarySession(s),
			func(q graph.NodeID) ([]float64, error) { return SummaryRWR(s, q, RWRConfig{}) },
			func(q graph.NodeID) ([]float64, error) { return SummaryPHP(s, q, PHPConfig{}) }},
	} {
		wantR := make([][]float64, len(qs))
		wantP := make([][]float64, len(qs))
		for i, q := range qs {
			var err error
			if wantR[i], err = ev.rwr(q); err != nil {
				t.Fatal(err)
			}
			if wantP[i], err = ev.php(q); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := 0; k < 2*len(qs); k++ {
					i := (w + k) % len(qs)
					got, want, kind := []float64(nil), wantR[i], "RWR"
					var err error
					if (w+k)%2 == 0 {
						got, err = ev.sess.RWR(qs[i], RWRConfig{})
					} else {
						got, err = ev.sess.PHP(qs[i], PHPConfig{})
						want, kind = wantP[i], "PHP"
					}
					if err != nil {
						t.Errorf("%s %s q=%d: %v", ev.name, kind, qs[i], err)
						return
					}
					if !slices.Equal(got, want) {
						t.Errorf("%s %s q=%d on goroutine %d: shared session diverged from the one-shot call",
							ev.name, kind, qs[i], w)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

func TestSessionOutOfRange(t *testing.T) {
	g, s := sessionTestGraph(t)
	if _, err := NewSession(GraphOracle{g}).RWR(graph.NodeID(g.NumNodes()), RWRConfig{}); err == nil {
		t.Error("oracle session accepted an out-of-range query node")
	}
	if _, err := NewSummarySession(s).PHP(graph.NodeID(g.NumNodes()), PHPConfig{}); err == nil {
		t.Error("summary session accepted an out-of-range query node")
	}
}

// TestSessionCancellation covers cfg.Ctx in all four session kernels, RWR
// and PHP on the oracle session and on the summary session. Each checks the
// context once per iteration: a context cancelled before the call, one whose
// deadline has passed and one cancelled after three iterations all end the
// query with the context's error and no vector, and a nil Ctx never cancels.
func TestSessionCancellation(t *testing.T) {
	g, s := goldenFixture(t)
	const q = 3 // in the giant component: no kernel converges in 3 iterations
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel2()
	for _, ev := range []struct {
		name string
		sess Session
	}{{"oracle", NewSession(GraphOracle{g})}, {"summary", NewSummarySession(s)}} {
		for _, k := range []struct {
			name   string
			answer func(ctx context.Context) ([]float64, error)
		}{
			{"RWR", func(ctx context.Context) ([]float64, error) { return ev.sess.RWR(q, RWRConfig{Ctx: ctx}) }},
			{"PHP", func(ctx context.Context) ([]float64, error) { return ev.sess.PHP(q, PHPConfig{Ctx: ctx}) }},
		} {
			for _, c := range []struct {
				name string
				ctx  context.Context
				want error
			}{
				{"cancelled", cancelled, context.Canceled},
				{"expired", expired, context.DeadlineExceeded},
				{"cancelled mid-query", &cancelAfter{Context: context.Background(), left: 3}, context.Canceled},
			} {
				if v, err := k.answer(c.ctx); !errors.Is(err, c.want) || v != nil {
					t.Errorf("%s %s, %s context: got %d scores and error %v, want no vector and %v",
						ev.name, k.name, c.name, len(v), err, c.want)
				}
			}
			want, err := k.answer(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got, err := k.answer(nil); err != nil || !slices.Equal(got, want) {
				t.Errorf("%s %s with a nil Ctx: error %v, or the answer differs from a live context's", ev.name, k.name, err)
			}
		}
	}
}

// cancelAfter is a context that reads as cancelled from the (left+1)-th
// call of Done on: a kernel that checks it once per iteration runs left
// iterations and stops at the next check. It is not safe for concurrent
// use.
type cancelAfter struct {
	context.Context
	left int
}

var closedDone = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

func (c *cancelAfter) Done() <-chan struct{} {
	if c.left == 0 {
		return closedDone
	}
	c.left--
	return nil
}

func (c *cancelAfter) Err() error {
	if c.left == 0 {
		return context.Canceled
	}
	return nil
}
