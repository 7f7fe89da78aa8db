package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"

	"pegasus/internal/graph"
	"pegasus/internal/obs"
	"pegasus/internal/queries"
	"pegasus/internal/summary"
)

// QueryParams are the algorithm parameters shared by the single-query
// (POST /v1/query/{kind}) and batch (POST /v1/query/batch) endpoints.
//
// Float parameters are pointers so that "absent" is distinguishable from an
// explicit value. This block is the single place the serving layer's
// default-selection rule is defined:
//
//   - absent (or JSON null)           → the paper default listed below;
//   - explicit, finite, in range      → honored as given;
//   - explicit 0, NaN, ±Inf, or out
//     of range                        → rejected with a 400.
//
// An explicit zero is rejected rather than honored because the query
// configs further down the stack (queries.RWRConfig and friends) treat the
// zero value as "use the default" — a request that says `"restart": 0`
// would be silently answered with restart 0.05, which is worse than an
// error. Non-finite values are rejected because NaN defeats range checks
// (NaN < 0 and NaN > 1 are both false), poisons the power iteration, and
// is unencodable in the JSON response.
//
// The integer parameters K and MaxIter are plain ints: an explicit 0
// selects the default, exactly like an absent field. That carries no
// zero-vs-default ambiguity because 0 is not a usable value for either (a
// top-0 answer and a 0-iteration query are both vacuous).
//
// Defaults: restart 0.05 and c 0.95 (§V-A), damping 0.85, eps 1e-9,
// max_iter 1000 (200 for pagerank), k 10.
type QueryParams struct {
	// K bounds the top-k answer (topk only; 0 selects the default 10).
	K int `json:"k"`
	// Metric is the score the topk answer ranks by: "rwr" (default), "php"
	// or "pagerank".
	Metric string `json:"metric"`
	// Restart is the RWR restart probability, in (0,1].
	Restart *float64 `json:"restart"`
	// C is the PHP penalty factor, in (0,1].
	C *float64 `json:"c"`
	// Damping is the PageRank continuation probability, in (0,1].
	Damping *float64 `json:"damping"`
	// Eps is the iteration convergence tolerance, > 0.
	Eps *float64 `json:"eps"`
	// MaxIter caps the iterations (0 selects the default).
	MaxIter int `json:"max_iter"`
}

// QueryRequest is the JSON body of POST /v1/query/{kind}.
type QueryRequest struct {
	// Node is the query node q; for pagerank it only selects the shard.
	Node uint32 `json:"node"`
	QueryParams
}

// maxTopK bounds the k of a topk query. Ranking keeps a bounded heap,
// O(|V| log k), so k costs little CPU; the bound caps the answer's size (k
// node IDs in the cached entry and the JSON body) and how long a ranking
// holds its slot of the bounded worker pool.
const maxTopK = 1000

// validate range-checks the algorithm parameters per the rule documented on
// QueryParams. Returns "" when valid.
func (p QueryParams) validate() string {
	if msg := checkUnitInterval("restart", p.Restart, 0.05); msg != "" {
		return msg
	}
	if msg := checkUnitInterval("c", p.C, 0.95); msg != "" {
		return msg
	}
	if msg := checkUnitInterval("damping", p.Damping, 0.85); msg != "" {
		return msg
	}
	if p.Eps != nil && (!isFinite(*p.Eps) || *p.Eps <= 0) {
		return fmt.Sprintf("eps must be a finite positive number (omit it for the default 1e-9), got %v", *p.Eps)
	}
	if p.MaxIter < 0 {
		return fmt.Sprintf("max_iter must be non-negative, got %d", p.MaxIter)
	}
	if p.K < 0 || p.K > maxTopK {
		return fmt.Sprintf("k must be in [1,%d], got %d", maxTopK, p.K)
	}
	return ""
}

// checkUnitInterval validates an optional probability-like parameter:
// absent is fine, an explicit value must be finite and in (0,1].
func checkUnitInterval(name string, v *float64, def float64) string {
	if v == nil {
		return ""
	}
	if !isFinite(*v) || *v <= 0 || *v > 1 {
		return fmt.Sprintf("%s must be in (0,1] (omit it for the default %g), got %v", name, def, *v)
	}
	return ""
}

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// metricFor resolves the effective metric for a query kind: non-topk kinds
// are their own metric; topk ranks by Metric (default "rwr"). The second
// return value is a non-empty error message on an unknown topk metric.
func (p QueryParams) metricFor(kind string) (string, string) {
	if kind != "topk" {
		return kind, ""
	}
	m := p.Metric
	if m == "" {
		m = "rwr"
	}
	switch m {
	case "rwr", "php", "pagerank":
		return m, ""
	}
	return "", fmt.Sprintf("unknown topk metric %q (want rwr, php or pagerank)", p.Metric)
}

// queryParams is the fully resolved parameter set: every field concrete,
// defaults applied. Cache keys are built from these, so "absent" and
// "explicitly the default" share one cache entry.
type queryParams struct {
	restart, c, damping, eps float64
	maxIter, k               int
}

// resolved applies the defaults documented on QueryParams; metric selects
// the max_iter default (PageRank defaults to 200 iterations, the power
// iterations to 1000).
func (p QueryParams) resolved(metric string) queryParams {
	r := queryParams{restart: 0.05, c: 0.95, damping: 0.85, eps: 1e-9, maxIter: p.MaxIter, k: p.K}
	if p.Restart != nil {
		r.restart = *p.Restart
	}
	if p.C != nil {
		r.c = *p.C
	}
	if p.Damping != nil {
		r.damping = *p.Damping
	}
	if p.Eps != nil {
		r.eps = *p.Eps
	}
	if r.maxIter == 0 {
		if metric == "pagerank" {
			r.maxIter = 200
		} else {
			r.maxIter = 1000
		}
	}
	if r.k == 0 {
		r.k = 10
	}
	return r
}

// NodeScore is one ranked answer entry.
type NodeScore struct {
	Node  uint32  `json:"node"`
	Score float64 `json:"score"`
}

// QueryResponse is the JSON answer of POST /v1/query/{kind}.
type QueryResponse struct {
	Kind       string      `json:"kind"`
	Node       uint32      `json:"node"`
	Shard      int         `json:"shard"`
	Cached     bool        `json:"cached"` // not computed by this request: a cache hit or a shared in-flight computation
	Generation uint64      `json:"generation"`
	Scores     []float64   `json:"scores,omitempty"`
	Dist       []int32     `json:"dist,omitempty"` // hop distances; -1 = unreached
	Top        []NodeScore `json:"top,omitempty"`
	// Trace is the span timeline of this request, present only when the
	// client asked for it with ?debug=1.
	Trace *obs.TraceView `json:"trace,omitempty"`
}

// SummarizeRequest is the JSON body of POST /v1/summarize. Absent (or null)
// fields keep the current setting. Each shard's resolved target set is the
// intersection of its partition part with the requested targets (order and
// repeats do not matter), and a part containing no requested target keeps
// its whole-part personalization — so an explicitly empty list resets
// every part to whole-part personalization, rebuilding only the shards
// that were restricted. On an unsharded server the one part is V, so an
// empty list selects the non-personalized summary. A request that changes
// targets within one part rebuilds only that shard, and the response
// reports how many shards were rebuilt vs reused.
type SummarizeRequest struct {
	Targets *[]uint32 `json:"targets"`
	// BudgetRatio replaces the per-shard budget when present; it must be a
	// finite positive fraction of Size(G). An explicit 0 is rejected (it is
	// not a usable budget); omit the field to keep the current setting.
	BudgetRatio *float64 `json:"budget_ratio"`
	// Alpha replaces the degree of personalization when present; it must be
	// finite and >= 1. Omit the field to keep the current setting.
	Alpha *float64 `json:"alpha"`
}

// validate range-checks a re-summarize request. An absent field keeps the
// current value; an explicit 0 is not a usable budget (and alpha < 1 is not
// a valid personalization degree), so both are rejected rather than
// silently treated as "keep current" — the pre-fix behavior the old "must
// be positive" message contradicted. Returns "" when valid.
func (r SummarizeRequest) validate() string {
	if r.BudgetRatio != nil && (!isFinite(*r.BudgetRatio) || *r.BudgetRatio <= 0) {
		return fmt.Sprintf(
			"budget_ratio must be a finite positive fraction of Size(G) (omit it to keep the current setting), got %v",
			*r.BudgetRatio)
	}
	if r.Alpha != nil && (!isFinite(*r.Alpha) || *r.Alpha < 1) {
		return fmt.Sprintf(
			"alpha must be finite and >= 1 (omit it to keep the current setting), got %v", *r.Alpha)
	}
	return ""
}

// ReportResponse is the JSON answer of GET /v1/summary/report.
type ReportResponse struct {
	Generation uint64           `json:"generation"`
	Shards     []summary.Report `json:"shards"`
}

// SummarizeResponse is the JSON answer of POST /v1/summarize: the new
// report plus the incremental-rebuild outcome. rebuilt + reused + loaded
// equals the shard count; a no-op request (nothing effectively changed)
// reports rebuilt 0, reused m.
type SummarizeResponse struct {
	ReportResponse
	// Rebuilt is the number of shards whose summary was built from scratch
	// because their content key (targets, budget, alpha, graph) changed.
	Rebuilt int `json:"rebuilt"`
	// Reused is the number of shards whose previous summary was
	// transplanted bit-identically (their cached query answers survive).
	Reused int `json:"reused"`
	// Loaded is the number of shards decoded from the on-disk artifact
	// store (always 0 without a cache dir) — bit-identical to a rebuild,
	// obtained at decode cost.
	Loaded int `json:"loaded"`
	// Keyable reports whether shard content keys could be computed for this
	// build. Every engine configuration has a content key, so it is always
	// true; the field stays so that the response keeps its shape.
	Keyable bool `json:"keyable"`
	// Trace is the span timeline of this rebuild (per-shard build phases),
	// present only when the client asked for it with ?debug=1.
	Trace *obs.TraceView `json:"trace,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the routing handler with metrics instrumentation; mount
// it on any HTTP server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// The literal /v1/query/batch pattern is more specific than the {kind}
	// wildcard, so batch requests never reach handleQuery.
	mux.HandleFunc("POST /v1/query/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/query/{kind}", s.handleQuery)
	mux.HandleFunc("GET /v1/summary/report", s.handleReport)
	mux.HandleFunc("POST /v1/summarize", s.handleSummarize)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/slowlog", s.handleSlowlog)
	return s.instrument(mux)
}

// instrument wraps every request with the observability layer: a fresh trace
// whose ID is echoed in the X-Trace-Id response header, a root "handler"
// span the downstream spans (cache, compute, session, build phases) nest
// under, the per-endpoint count/latency/error counters, and — when the
// request crosses cfg.SlowLogThreshold — a slow-log entry carrying the full
// span timeline.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		endpoint := endpointLabel(r)
		tr := obs.NewTrace()
		ctx, root := obs.StartSpan(obs.WithTrace(r.Context(), tr), "handler")
		root.Attr("endpoint", endpoint)
		w.Header().Set("X-Trace-Id", tr.ID())
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r.WithContext(ctx))
		root.AttrInt("status", rec.Status())
		root.End()
		dur := time.Since(start)
		s.metrics.ObserveRequest(endpoint, dur, rec.Status() >= 400)
		if s.cfg.SlowLogThreshold >= 0 && dur >= s.cfg.SlowLogThreshold {
			v := tr.View()
			s.slowlog.Add(obs.SlowEntry{
				Time:       start,
				TraceID:    tr.ID(),
				Method:     r.Method,
				Path:       r.URL.Path,
				Endpoint:   endpoint,
				Status:     rec.Status(),
				DurationMs: float64(dur.Microseconds()) / 1000.0,
				Trace:      &v,
			})
		}
	})
}

// statusRecorder captures the response status for the metrics layer while
// staying transparent to the handlers: Flush is forwarded so streaming
// responses keep working behind the wrapper, and a handler that never calls
// WriteHeader (net/http commits an implicit 200 on the first Write) is
// reported as 200.
type statusRecorder struct {
	http.ResponseWriter
	status int // 0 until WriteHeader; Status() reports 200 then
}

// Status returns the recorded status, defaulting to 200 when the handler
// never called WriteHeader explicitly.
func (w *statusRecorder) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

func (w *statusRecorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer when it supports flushing, so
// wrapping does not hide http.Flusher from handlers that stream.
func (w *statusRecorder) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// endpointLabel buckets a request path into a stable metrics label.
func endpointLabel(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasPrefix(p, "/v1/query/"):
		// Only known kinds become labels, so unauthenticated clients cannot
		// grow the metrics map with arbitrary path suffixes.
		kind := strings.TrimPrefix(p, "/v1/query/")
		switch kind {
		case "rwr", "hop", "php", "pagerank", "topk", "batch":
			return "query/" + kind
		}
		return "query/invalid"
	case p == "/v1/summary/report":
		return "report"
	case p == "/v1/summarize":
		return "summarize"
	case p == "/healthz":
		return "healthz"
	case p == "/metrics":
		return "metrics"
	case p == "/debug/slowlog":
		return "slowlog"
	default:
		return "other"
	}
}

// debugTrace returns the request's span timeline when the client opted in
// with ?debug=1 (nil otherwise), for embedding in the JSON response. The
// snapshot is taken at call time, so spans still open (the root handler
// span) report their duration so far.
func debugTrace(r *http.Request) *obs.TraceView {
	if r.URL.Query().Get("debug") != "1" {
		return nil
	}
	t := obs.FromContext(r.Context())
	if t == nil {
		return nil
	}
	v := t.View()
	return &v
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	// Marshal before committing the status line: an unencodable value must
	// become a 500, not a 200 with an empty body.
	raw, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		raw, _ = json.Marshal(errorResponse{Error: "response not encodable: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The status line is committed; a failed body write means the client
	// went away, and there is nothing left to signal it to.
	_, _ = w.Write(raw)
	_, _ = w.Write([]byte("\n"))
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeQueryError maps a computation error to an HTTP status, with the
// same message queryErrorString gives per-item batch errors.
func writeQueryError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = http.StatusServiceUnavailable
	}
	writeError(w, status, "%s", queryErrorString(err))
}

// queryErrorString classifies a computation error into the serving layer's
// client-facing message (used verbatim for per-item batch errors).
func queryErrorString(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "query timed out: " + err.Error()
	case errors.Is(err, context.Canceled):
		return "query cancelled: " + err.Error()
	default:
		return "query failed: " + err.Error()
	}
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	kind := r.PathValue("kind")
	switch kind {
	case "rwr", "hop", "php", "pagerank", "topk":
	default:
		writeError(w, http.StatusNotFound,
			"unknown query kind %q (want rwr, hop, php, pagerank or topk)", kind)
		return
	}
	var req QueryRequest
	if !s.decode(w, r, &req) {
		return
	}
	metric, msg := req.metricFor(kind)
	if msg == "" {
		msg = req.validate()
	}
	if msg != "" {
		writeError(w, http.StatusBadRequest, "%s", msg)
		return
	}

	box := s.current()
	be := box.be
	q := graph.NodeID(req.Node)
	if int(q) >= be.numNodes() {
		writeError(w, http.StatusBadRequest,
			"query node %d out of range (|V|=%d)", req.Node, be.numNodes())
		return
	}
	shard, err := be.shard(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.metrics.ObserveShard(shard)

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.QueryTimeout)
	defer cancel()

	key, compute := s.plan(box, kind, metric, q, shard, req.resolved(metric))
	// The cache span covers the whole lookup: a hit ends it immediately, a
	// miss stretches it over the compute (whose own spans nest inside), and
	// a singleflight waiter shows the time spent waiting on the leader.
	cctx, csp := obs.StartSpan(ctx, "cache")
	val, status, err := s.cache.GetOrCompute(cctx, key, func() (any, error) { return compute(cctx) })
	csp.Attr("status", cacheStatusLabel(status, err))
	csp.End()
	if err != nil {
		// Errored lookups (timed-out waiters in particular) stay out of the
		// hit/miss counters, or hit_rate would climb exactly when the server
		// is timing out.
		writeQueryError(w, err)
		return
	}
	s.metrics.ObserveCache(status)

	resp := QueryResponse{
		Kind:       kind,
		Node:       req.Node,
		Shard:      shard,
		Cached:     status != CacheMiss,
		Generation: box.gen,
		Trace:      debugTrace(r),
	}
	fillResult(&resp.Scores, &resp.Dist, &resp.Top, kind, val)
	writeJSON(w, http.StatusOK, resp)
}

// cacheStatusLabel renders a lookup outcome for the cache span attribute.
func cacheStatusLabel(s CacheStatus, err error) string {
	if err != nil {
		return "error"
	}
	switch s {
	case CacheHit:
		return "hit"
	case CacheShared:
		return "shared"
	default:
		return "miss"
	}
}

// fillResult routes a computed value into the kind-appropriate response
// field (shared by the single-query and batch answer shapes), expanding a
// compact RWR, PHP or HOP answer to its |V| entries.
func fillResult(scores *[]float64, dist *[]int32, top *[]NodeScore, kind string, val any) {
	switch v := val.(type) {
	case *queries.Answer:
		if kind == "hop" {
			*dist = v.Dists()
		} else {
			*scores = v.Scores()
		}
	case []NodeScore:
		*top = v
	case []float64:
		*scores = v
	}
}

// rank returns the k best entries of a score answer, a compact RWR or PHP
// answer or a PageRank vector, in TopK's order.
func rank(val any, k int) []NodeScore {
	var top []NodeScore
	switch v := val.(type) {
	case *queries.Answer:
		ids := v.TopK(k)
		top = make([]NodeScore, len(ids))
		for i, id := range ids {
			top[i] = NodeScore{Node: uint32(id), Score: v.At(id)}
		}
	case []float64:
		ids := queries.TopK(v, k)
		top = make([]NodeScore, len(ids))
		for i, id := range ids {
			top[i] = NodeScore{Node: uint32(id), Score: v[id]}
		}
	}
	return top
}

// plan returns the cache key and compute closure for one query. The key
// carries the generation of the shard that answers it (backendBox.sgen) —
// rebuilt shards advance their generation so stale results can never be
// served, while shards an incremental rebuild transplanted keep theirs, so
// their cached answers (bit-identical artifacts) keep hitting.
//
// Compute closures acquire the bounded worker pool themselves and must be
// invoked WITHOUT holding a pool slot: a closure may wait on another
// in-flight cache computation (topk waits on its score vector), and waiting
// on a flight whose leader is queued for a slot while holding one would
// deadlock a size-1 pool. The invariant throughout the serving layer is
// "never wait on a flight while holding a slot".
func (s *Server) plan(box *backendBox, kind, metric string, q graph.NodeID, shard int, p queryParams) (string, func(context.Context) (any, error)) {
	key, compute := s.metricPlan(box, metric, q, shard, p)
	if kind != "topk" {
		return key, compute
	}
	// topk caches the ranked answer under its own key (repeated identical
	// topk queries must not re-rank the score vector) and reaches the
	// underlying scores through a nested lookup under the plain metric
	// query's key: it reads a vector a full-vector query stored and joins
	// an identical in-flight computation. It stores the vector itself only
	// for pagerank, which is shard-scoped and so shared by the top-k of
	// every node on the shard; a node's |V|-entry RWR or PHP vector would
	// pin |V| floats per k-entry answer, so only the ranked entries are
	// kept. Ranking runs on the worker pool: its O(|V| log k) heap pass is
	// real CPU that the pool bound must cap.
	topkKey := fmt.Sprintf("%s|top%d", key, p.k)
	storeScores := metric == "pagerank"
	return topkKey, func(ctx context.Context) (any, error) {
		val, _, err := s.cache.getOrCompute(ctx, key, storeScores, func() (any, error) { return compute(ctx) })
		if err != nil {
			return nil, err
		}
		var top []NodeScore
		err = s.pool.Run(ctx, func() error {
			top = rank(val, p.k)
			return nil
		})
		if err != nil {
			return nil, err
		}
		return top, nil
	}
}

// metricPlan returns the cache key and pool-bounded compute closure for one
// plain metric query (the score/distance vector underlying every kind).
// RWR and PHP run on the shard's session, which the backend built with the
// artifact, so a request pays only for its own iterations.
func (s *Server) metricPlan(box *backendBox, metric string, q graph.NodeID, shard int, p queryParams) (string, func(context.Context) (any, error)) {
	pooled := func(fn func(ctx context.Context) (any, error)) func(context.Context) (any, error) {
		return func(ctx context.Context) (any, error) {
			// The compute span covers pool admission plus the computation;
			// the session spans (session.rwr, session.php) nest inside it,
			// so pool-wait time shows up as the gap between the two.
			ctx, sp := obs.StartSpan(ctx, "compute."+metric)
			defer sp.End()
			var out any
			err := s.pool.Run(ctx, func() error {
				v, err := fn(ctx)
				out = v
				return err
			})
			return out, err
		}
	}
	// Every key embeds the generation of the answering shard, not the
	// global backend generation: node-scoped queries (rwr/php/hop/topk)
	// belong to exactly one shard, and pagerank is shard-scoped by
	// construction. The node→shard routing is stable across rebuilds (the
	// partition inputs are not hot-reconfigurable), so a shard generation
	// fully qualifies the artifact a key was computed against.
	sgen := box.sgen(shard)
	switch metric {
	case "hop":
		return fmt.Sprintf("g%d|hop|n%d", sgen, q),
			pooled(func(ctx context.Context) (any, error) {
				_ = ctx // BFS is single-pass; bounded by the pool, not the context
				return box.be.sessions[shard].HOPAnswer(q)
			})
	case "php":
		cfg := queries.PHPConfig{C: p.c, Eps: p.eps, MaxIter: p.maxIter}
		return fmt.Sprintf("g%d|php|n%d|c%g,e%g,i%d", sgen, q, cfg.C, cfg.Eps, cfg.MaxIter),
			pooled(func(ctx context.Context) (any, error) {
				cfg := cfg
				cfg.Ctx = ctx
				return box.be.sessions[shard].PHPAnswer(q, cfg)
			})
	case "pagerank":
		cfg := queries.PageRankConfig{Damping: p.damping, Eps: p.eps, MaxIter: p.maxIter}
		return fmt.Sprintf("g%d|pagerank|s%d|d%g,e%g,i%d", sgen, shard, cfg.Damping, cfg.Eps, cfg.MaxIter),
			pooled(func(ctx context.Context) (any, error) {
				cfg := cfg
				cfg.Ctx = ctx
				return pageRankChecked(box.be.c.Machines[shard].Oracle(), cfg)
			})
	default: // rwr
		cfg := queries.RWRConfig{Restart: p.restart, Eps: p.eps, MaxIter: p.maxIter}
		return fmt.Sprintf("g%d|rwr|n%d|r%g,e%g,i%d", sgen, q, cfg.Restart, cfg.Eps, cfg.MaxIter),
			pooled(func(ctx context.Context) (any, error) {
				cfg := cfg
				cfg.Ctx = ctx
				return box.be.sessions[shard].RWRAnswer(q, cfg)
			})
	}
}

func (s *Server) handleReport(w http.ResponseWriter, _ *http.Request) {
	box := s.current()
	writeJSON(w, http.StatusOK, ReportResponse{
		Generation: box.gen,
		Shards:     box.be.reports(),
	})
}

func (s *Server) handleSummarize(w http.ResponseWriter, r *http.Request) {
	var req SummarizeRequest
	if !s.decode(w, r, &req) {
		return
	}
	if msg := req.validate(); msg != "" {
		writeError(w, http.StatusBadRequest, "%s", msg)
		return
	}
	var targets []graph.NodeID
	if req.Targets != nil {
		targets = make([]graph.NodeID, 0, len(*req.Targets))
		for _, t := range *req.Targets {
			if int(t) >= s.g.NumNodes() {
				writeError(w, http.StatusBadRequest,
					"target %d out of range (|V|=%d)", t, s.g.NumNodes())
				return
			}
			targets = append(targets, graph.NodeID(t))
		}
	}

	apply := func(cfg Config) Config {
		if req.Targets != nil {
			cfg.Targets = targets
		}
		if req.BudgetRatio != nil {
			cfg.BudgetRatio = *req.BudgetRatio
		}
		if req.Alpha != nil {
			cfg.Alpha = *req.Alpha
		}
		return cfg
	}
	// The rebuild span wraps the whole incremental rebuild; the per-shard
	// build.shard spans (and their shingle/merge phase children) nest under
	// it via the context.
	ctx, sp := obs.StartSpan(r.Context(), "rebuild")
	box, stats, err := s.rebuild(ctx, apply)
	if err != nil {
		sp.End()
		writeQueryError(w, err)
		return
	}
	sp.AttrInt("rebuilt", stats.Rebuilt)
	sp.AttrInt("reused", stats.Reused)
	sp.AttrInt("loaded", stats.Loaded)
	sp.End()
	writeJSON(w, http.StatusOK, SummarizeResponse{
		ReportResponse: ReportResponse{
			Generation: box.gen,
			Shards:     box.be.reports(),
		},
		Rebuilt: stats.Rebuilt,
		Reused:  stats.Reused,
		Loaded:  stats.Loaded,
		Keyable: true,
		Trace:   debugTrace(r),
	})
}

type healthResponse struct {
	Status     string `json:"status"`
	Generation uint64 `json:"generation"`
	Shards     int    `json:"shards"`
	Nodes      int    `json:"nodes"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	box := s.current()
	writeJSON(w, http.StatusOK, healthResponse{
		Status:     "ok",
		Generation: box.gen,
		Shards:     box.be.numShards(),
		Nodes:      box.be.numNodes(),
	})
}

// handleMetrics serves the telemetry snapshot. The default (and ?format=json)
// is the JSON snapshot, whose shape is additive-only across releases;
// ?format=prometheus renders the same counters in the text exposition format
// (version 0.0.4) for scraping.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var persist *PersistMetrics
	if s.store != nil {
		st := s.store.Stats()
		persist = &st
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK,
			s.metrics.SnapshotNow(s.cache.Len(), s.cache.Bytes(), s.pool.InFlight(), s.gen.Load(), persist))
	case "prometheus":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.metrics.WriteProm(w, s.cache.Len(), s.cache.Bytes(), s.pool.InFlight(), s.gen.Load(), persist)
	default:
		writeError(w, http.StatusBadRequest, "unknown metrics format %q (want json or prometheus)", format)
	}
}
