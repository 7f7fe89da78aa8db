// Package obs is the observability layer: a lightweight span tracer
// propagated through context.Context, a fixed-size slow-query ring buffer,
// a Prometheus text-exposition writer, and runtime stat collection. It is
// deliberately dependency-free (stdlib only) and allocation-conscious: when
// no trace is attached to a context, starting a span is a nil check and
// returns the context unchanged — instrumented hot paths (the query
// sessions, the engine build pipeline) pay nothing unless a caller opted in.
package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// MaxSpans bounds the spans recorded per trace; later StartSpan calls are
// counted as dropped instead of stored, so a pathological build (thousands
// of iterations) cannot grow a trace without bound.
const MaxSpans = 512

// idBase is a per-process random value mixed into every trace ID, so IDs
// from different processes virtually never collide; idCtr guarantees
// uniqueness within the process.
var (
	idBase uint64
	idCtr  atomic.Uint64
)

func init() {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		idBase = binary.LittleEndian.Uint64(b[:])
	} else {
		idBase = uint64(time.Now().UnixNano())
	}
}

func newID() string {
	return fmt.Sprintf("%016x%016x", idBase, idCtr.Add(1))
}

// Attr is one span attribute. Values are pre-rendered strings: spans are for
// humans reading a timeline, and rendering at Set time keeps the View path
// allocation-free of reflection.
type Attr struct {
	Key string `json:"key"`
	Val string `json:"val"`
}

// span is the internal record; times are nanosecond offsets from the trace
// start so a span costs two int64s instead of two time.Times.
type span struct {
	name    string
	parent  int32
	startNs int64
	endNs   int64 // 0 while open
	attrs   []Attr
}

// Trace is one request's (or one build's) span collection. Safe for
// concurrent use: parallel shard builds and batch shard groups append spans
// from multiple goroutines.
type Trace struct {
	id    string
	start time.Time

	mu      sync.Mutex
	spans   []span
	dropped int
}

// NewTrace returns an empty trace with a fresh unique ID.
func NewTrace() *Trace {
	return &Trace{id: newID(), start: time.Now()}
}

// ID returns the trace identifier (32 hex chars, unique per process).
func (t *Trace) ID() string { return t.id }

func (t *Trace) startSpan(name string, parent int32) int32 {
	now := time.Since(t.start).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= MaxSpans {
		t.dropped++
		return -1
	}
	if t.spans == nil {
		t.spans = make([]span, 0, 16)
	}
	t.spans = append(t.spans, span{name: name, parent: parent, startNs: now})
	return int32(len(t.spans) - 1)
}

type traceKey struct{}
type spanKey struct{}

// WithTrace attaches t to ctx; every StartSpan below records into it.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// FromContext returns the trace attached to ctx, or nil (nil ctx included).
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// SpanHandle ends or annotates one started span. The zero value — returned
// when no trace was attached — is a safe no-op for every method, so
// instrumented code never branches on "is tracing on".
type SpanHandle struct {
	t   *Trace
	idx int32
}

// StartSpan opens a named span under the current span of ctx (or as a root
// span) and returns a context carrying it as the new current span. When ctx
// is nil or carries no trace, ctx is returned unchanged with a no-op handle.
func StartSpan(ctx context.Context, name string) (context.Context, SpanHandle) {
	if ctx == nil {
		return ctx, SpanHandle{}
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	if t == nil {
		return ctx, SpanHandle{}
	}
	parent := int32(-1)
	if p, ok := ctx.Value(spanKey{}).(int32); ok {
		parent = p
	}
	idx := t.startSpan(name, parent)
	if idx < 0 {
		return ctx, SpanHandle{} // over MaxSpans: counted, not recorded
	}
	return context.WithValue(ctx, spanKey{}, idx), SpanHandle{t: t, idx: idx}
}

// End closes the span. Ending twice keeps the first end time.
func (s SpanHandle) End() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.start).Nanoseconds()
	s.t.mu.Lock()
	if s.t.spans[s.idx].endNs == 0 {
		s.t.spans[s.idx].endNs = now
	}
	s.t.mu.Unlock()
}

// Attr attaches a key/value attribute to the span.
func (s SpanHandle) Attr(key, val string) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	s.t.spans[s.idx].attrs = append(s.t.spans[s.idx].attrs, Attr{Key: key, Val: val})
	s.t.mu.Unlock()
}

// AttrInt attaches an integer attribute.
func (s SpanHandle) AttrInt(key string, v int) { s.Attr(key, itoa(v)) }

// SpanView is one span as exposed in a ?debug=1 timeline.
type SpanView struct {
	Name string `json:"name"`
	// Parent is the index (into Spans) of the enclosing span, -1 for roots.
	Parent     int   `json:"parent"`
	StartUs    int64 `json:"start_us"`
	DurationUs int64 `json:"duration_us"`
	// Open marks spans not yet ended at snapshot time (their duration is
	// "so far") — the root handler span of an in-flight request, typically.
	Open  bool   `json:"open,omitempty"`
	Attrs []Attr `json:"attrs,omitempty"`
}

// TraceView is the JSON-ready snapshot of a trace: spans in start order
// (appends are serialized by the trace mutex, so the order is the order
// spans actually started).
type TraceView struct {
	TraceID string     `json:"trace_id"`
	Spans   []SpanView `json:"spans"`
	// DroppedSpans counts StartSpan calls beyond MaxSpans.
	DroppedSpans int `json:"dropped_spans,omitempty"`
}

// View snapshots the trace. Open spans report the duration accumulated so
// far and are flagged Open.
func (t *Trace) View() TraceView {
	now := time.Since(t.start).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	v := TraceView{TraceID: t.id, Spans: make([]SpanView, len(t.spans)), DroppedSpans: t.dropped}
	for i, s := range t.spans {
		end := s.endNs
		open := false
		if end == 0 {
			end, open = now, true
		}
		sv := SpanView{
			Name:       s.name,
			Parent:     int(s.parent),
			StartUs:    s.startNs / 1000,
			DurationUs: (end - s.startNs) / 1000,
			Open:       open,
		}
		if len(s.attrs) > 0 {
			sv.Attrs = append([]Attr(nil), s.attrs...)
		}
		v.Spans[i] = sv
	}
	return v
}
