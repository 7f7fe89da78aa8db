package obs

import (
	"context"
	"sync"
	"testing"
)

// TestSpanNestingAndOrder checks the determinism of a sequential span tree:
// spans appear in start order, parents link correctly, and durations nest
// (a parent covers its children).
func TestSpanNestingAndOrder(t *testing.T) {
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)

	ctx1, root := StartSpan(ctx, "root")
	ctx2, child := StartSpan(ctx1, "child")
	_, grand := StartSpan(ctx2, "grandchild")
	grand.End()
	child.End()
	_, sib := StartSpan(ctx1, "sibling")
	sib.End()
	root.End()

	v := tr.View()
	if v.TraceID != tr.ID() {
		t.Fatalf("view trace id %q != %q", v.TraceID, tr.ID())
	}
	names := []string{"root", "child", "grandchild", "sibling"}
	parents := []int{-1, 0, 1, 0}
	if len(v.Spans) != len(names) {
		t.Fatalf("got %d spans, want %d", len(v.Spans), len(names))
	}
	for i, s := range v.Spans {
		if s.Name != names[i] {
			t.Errorf("span %d name %q, want %q (start order must be record order)", i, s.Name, names[i])
		}
		if s.Parent != parents[i] {
			t.Errorf("span %q parent %d, want %d", s.Name, s.Parent, parents[i])
		}
		if s.Open {
			t.Errorf("span %q still open after End", s.Name)
		}
		if s.StartUs < 0 || s.DurationUs < 0 {
			t.Errorf("span %q has negative timing: start %d dur %d", s.Name, s.StartUs, s.DurationUs)
		}
	}
	// Nesting: each child starts no earlier and ends no later than its
	// parent. Start/duration are truncated to microseconds independently, so
	// allow 1µs of quantization slack on each bound.
	for _, s := range v.Spans {
		if s.Parent < 0 {
			continue
		}
		p := v.Spans[s.Parent]
		if s.StartUs < p.StartUs-1 {
			t.Errorf("span %q starts before its parent", s.Name)
		}
		if s.StartUs+s.DurationUs > p.StartUs+p.DurationUs+2 {
			t.Errorf("span %q ends after its parent", s.Name)
		}
	}
}

func TestStartSpanNoTraceIsNoop(t *testing.T) {
	ctx := context.Background()
	got, sp := StartSpan(ctx, "x")
	if got != ctx {
		t.Error("StartSpan without a trace must return the context unchanged")
	}
	// All handle methods must be safe on the zero value.
	sp.Attr("k", "v")
	sp.AttrInt("i", 1)
	sp.End()
	sp.End()

	if got, sp := StartSpan(nil, "x"); got != nil { //nolint:staticcheck // nil ctx is the documented degenerate case
		t.Error("StartSpan(nil) must return nil back")
	} else {
		sp.End()
	}
	if FromContext(nil) != nil { //nolint:staticcheck
		t.Error("FromContext(nil) must be nil")
	}
}

func TestEndIsIdempotent(t *testing.T) {
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	_, sp := StartSpan(ctx, "once")
	sp.End()
	first := tr.View().Spans[0].DurationUs
	sp.End() // must keep the first end time
	if got := tr.View().Spans[0].DurationUs; got != first {
		t.Errorf("second End changed duration: %d -> %d", first, got)
	}
}

func TestTraceIDUniqueUnderConcurrency(t *testing.T) {
	const goroutines, perG = 100, 50
	ids := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = make([]string, perG)
			for i := 0; i < perG; i++ {
				ids[g][i] = NewTrace().ID()
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[string]bool, goroutines*perG)
	for _, batch := range ids {
		for _, id := range batch {
			if len(id) != 32 {
				t.Fatalf("trace id %q is not 32 hex chars", id)
			}
			if seen[id] {
				t.Fatalf("duplicate trace id %q", id)
			}
			seen[id] = true
		}
	}
}

func TestConcurrentSpansOneTrace(t *testing.T) {
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	const goroutines, perG = 16, 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				_, sp := StartSpan(ctx, "worker")
				sp.AttrInt("g", g)
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	v := tr.View()
	if len(v.Spans) != goroutines*perG {
		t.Fatalf("got %d spans, want %d", len(v.Spans), goroutines*perG)
	}
	for i, s := range v.Spans {
		if s.Open {
			t.Fatalf("span %d still open", i)
		}
	}
}

func TestMaxSpansCap(t *testing.T) {
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	const extra = 25
	for i := 0; i < MaxSpans+extra; i++ {
		_, sp := StartSpan(ctx, "s")
		sp.End()
	}
	v := tr.View()
	if len(v.Spans) != MaxSpans {
		t.Errorf("got %d spans, want the %d cap", len(v.Spans), MaxSpans)
	}
	if v.DroppedSpans != extra {
		t.Errorf("dropped %d spans, want %d", v.DroppedSpans, extra)
	}
}

func TestOpenSpanInView(t *testing.T) {
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	_, sp := StartSpan(ctx, "open")
	v := tr.View()
	if !v.Spans[0].Open {
		t.Error("unended span must be flagged Open in the view")
	}
	if v.Spans[0].DurationUs < 0 {
		t.Error("open span must report a non-negative duration-so-far")
	}
	sp.End()
	if tr.View().Spans[0].Open {
		t.Error("ended span must not be flagged Open")
	}
}

func TestAttrs(t *testing.T) {
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	_, sp := StartSpan(ctx, "a")
	sp.Attr("k", "v")
	sp.AttrInt("n", 42)
	sp.End()
	attrs := tr.View().Spans[0].Attrs
	want := []Attr{{Key: "k", Val: "v"}, {Key: "n", Val: "42"}}
	if len(attrs) != len(want) {
		t.Fatalf("got %d attrs, want %d", len(attrs), len(want))
	}
	for i, a := range attrs {
		if a != want[i] {
			t.Errorf("attr %d = %+v, want %+v", i, a, want[i])
		}
	}
}
