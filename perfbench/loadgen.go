package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opKind is one entry of the traffic mix. Every query runs at API defaults.
type opKind uint8

const (
	opTopkRWR opKind = iota // top-k by RWR, k 10
	opTopkPHP               // top-k by PHP
	opHop                   // hop distances
	opRWR                   // full RWR vector
	opBatch                 // batch of batchSize top-k-by-RWR queries
	numOpKinds
)

var opNames = [numOpKinds]string{"topk-rwr", "topk-php", "hop", "rwr", "batch"}

// mixCum is the cumulative traffic mix: 70% top-k RWR, 10% top-k PHP,
// 10% HOP, 5% full-vector RWR, 5% batches.
var mixCum = [numOpKinds]float64{0.70, 0.80, 0.90, 0.95, 1}

var opPaths = [numOpKinds]string{"/v1/query/topk", "/v1/query/topk", "/v1/query/hop", "/v1/query/rwr", "/v1/query/batch"}

const (
	batchSize = 4
	defaultK  = 10
	// zipfS is the Zipf exponent of hot query nodes over T.
	zipfS = 1.1
	// checkShare is the seeded fraction of untraced answers decoded and
	// checked in-process: decoding every full-vector body would take the
	// cores the server is being measured on.
	checkShare = 0.02
	// conns is the number of connections the load generator uses, the
	// host's core count on the reference machine.
	conns = 2
	// requestTimeout fails a request that takes longer.
	requestTimeout = 30 * time.Second
)

// op is one request: its kind, its query nodes (nodes[0] for single
// queries) and, in the open loop, its scheduled send time.
type op struct {
	at    time.Duration
	kind  opKind
	check bool
	nodes [batchSize]uint32
}

// appendBody appends the JSON request body of o to b.
func (o *op) appendBody(b []byte) []byte {
	switch o.kind {
	case opBatch:
		b = append(b, `{"kind":"topk","nodes":[`...)
		for i, v := range o.nodes {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, uint64(v), 10)
		}
		return append(b, "]}"...)
	case opTopkPHP:
		b = append(b, `{"metric":"php","node":`...)
	default:
		b = append(b, `{"node":`...)
	}
	b = strconv.AppendUint(b, uint64(o.nodes[0]), 10)
	return append(b, '}')
}

// family is a result-cache family: RWR vectors, which top-k by RWR,
// full-vector RWR and batch items share per node, PHP vectors, and HOP
// distances.
type family uint8

const (
	famRWR family = iota
	famPHP
	famHop
	numFamilies
)

var opFamily = [numOpKinds]family{famRWR, famPHP, famHop, famRWR, famRWR}

// opStream draws ops from the traffic mix. A hot stream draws query nodes
// Zipf-distributed over pool. A cold stream draws them from a seeded
// permutation of the nodes outside pool, one per cache family, so no cache
// key repeats until its family has used every node, and none is a target
// the warm-up cached. One seeded rand.Rand drives every draw, so a stream
// is a pure function of its seed.
type opStream struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	pool  []uint32
	perms [numFamilies]perm
}

// perm hands out the nodes of order one at a time and reshuffles it once
// every node has been handed out.
type perm struct {
	order []uint32
	next  int
}

func newOpStream(seed int64, hot bool, pool []uint32, n int) *opStream {
	s := &opStream{rng: rand.New(rand.NewSource(seed))}
	if hot {
		// Permute the pool so which target is hottest is part of the draw.
		s.pool = append([]uint32(nil), pool...)
		s.rng.Shuffle(len(s.pool), func(i, j int) { s.pool[i], s.pool[j] = s.pool[j], s.pool[i] })
		s.zipf = rand.NewZipf(s.rng, zipfS, 1, uint64(len(s.pool)-1))
		return s
	}
	outside := make([]uint32, 0, n)
	for u := range uint32(n) {
		if !slices.Contains(pool, u) {
			outside = append(outside, u)
		}
	}
	for f := range s.perms {
		s.perms[f] = perm{order: slices.Clone(outside), next: len(outside)}
	}
	return s
}

func (s *opStream) node(f family) uint32 {
	if s.zipf != nil {
		return s.pool[s.zipf.Uint64()]
	}
	p := &s.perms[f]
	if p.next == len(p.order) {
		s.rng.Shuffle(len(p.order), func(i, j int) { p.order[i], p.order[j] = p.order[j], p.order[i] })
		p.next = 0
	}
	p.next++
	return p.order[p.next-1]
}

func (s *opStream) next() op {
	u := s.rng.Float64()
	var o op
	for o.kind = 0; o.kind < numOpKinds-1 && u >= mixCum[o.kind]; o.kind++ {
	}
	f := opFamily[o.kind]
	o.nodes[0] = s.node(f)
	if o.kind == opBatch {
		for i := 1; i < batchSize; i++ {
			o.nodes[i] = s.node(f)
		}
	}
	o.check = s.rng.Float64() < checkShare
	return o
}

// schedule draws the open-loop phase: count Poisson arrivals at rate per
// second, each carrying the next op of the stream. Fixing the count rather
// than the duration guarantees the phase its sample size on every seed.
func schedule(s *opStream, rate float64, count int) []op {
	ops := make([]op, count)
	t := 0.0
	for i := range ops {
		t += s.rng.ExpFloat64() / rate
		ops[i] = s.next()
		ops[i].at = time.Duration(t * float64(time.Second))
	}
	return ops
}

// record is the outcome of one request. Times are from the phase start.
type record struct {
	sched, start, end time.Duration
	bytes             int
	failed            bool
	traced            bool
	kind              opKind
}

// loadgen sends query traffic to one server over at most conns
// connections. Per-request work is a URL lookup, a body appended into a
// per-worker buffer and the response read into another, so the generator
// adds little to the heap it shares with the server.
type loadgen struct {
	hc    *http.Client
	urls  [numOpKinds]string
	debug [numOpKinds]string
	n     int // |V|, for answer checks
	// traced checks every answer and sends every other request of a
	// measured phase with ?debug=1; otherwise only ops marked check are
	// checked and none are traced.
	traced bool
	res    *results
	layers *layerAcc
}

func newLoadgen(base string, n int, traced bool, res *results, layers *layerAcc) *loadgen {
	lg := &loadgen{
		hc: &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
		n: n, traced: traced, res: res, layers: layers,
	}
	for k := range lg.urls {
		lg.urls[k] = base + opPaths[k]
		lg.debug[k] = base + opPaths[k] + "?debug=1"
	}
	return lg
}

func (lg *loadgen) close() { lg.hc.CloseIdleConnections() }

// worker is one connection's sender state.
type worker struct {
	body []byte
	resp bytes.Buffer
}

// send runs one op and fills rec's end, bytes and failed fields. traced
// requests carry ?debug=1 and feed the layer accumulator.
func (lg *loadgen) send(ctx context.Context, w *worker, o *op, traced bool, t0 time.Time, rec *record) {
	w.body = o.appendBody(w.body[:0])
	url := lg.urls[o.kind]
	if traced {
		url = lg.debug[o.kind]
	}
	rec.kind, rec.traced = o.kind, traced
	status, err := lg.post(ctx, url, w)
	rec.end = time.Since(t0)
	rec.bytes = w.resp.Len()
	switch {
	case err != nil:
		rec.failed = lg.res.fail("%s: %v", opNames[o.kind], err)
		return
	case status/100 != 2:
		rec.failed = lg.res.fail("%s: status %d: %.200s", opNames[o.kind], status, w.resp.Bytes())
		return
	}
	if !traced && !o.check && !lg.traced {
		return
	}
	view, msg := checkAnswer(o, w.resp.Bytes(), lg.n)
	if msg != "" {
		rec.failed = lg.res.fail("%s node %d: %s", opNames[o.kind], o.nodes[0], msg)
		return
	}
	if traced && view != nil {
		lg.layers.addQuery(view, durMs(rec.end-rec.start))
	}
}

func (lg *loadgen) post(ctx context.Context, url string, w *worker) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(w.body))
	if err != nil {
		return 0, err
	}
	resp, err := lg.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	w.resp.Reset()
	if _, err := w.resp.ReadFrom(resp.Body); err != nil {
		return 0, fmt.Errorf("read body: %w", err)
	}
	return resp.StatusCode, nil
}

// tracedOp reports whether op i of a phase goes out with ?debug=1: in a
// traced run, every traceEvery-th op (none when traceEvery is 0). Measured
// phases trace every other op, so traced and untraced requests share the
// phase's conditions and their latency difference is the tracing overhead.
func (lg *loadgen) tracedOp(i, traceEvery int) bool {
	return lg.traced && traceEvery > 0 && i%traceEvery == traceEvery-1
}

// openLoop sends ops at their scheduled times over conns workers. A worker
// takes the next op, waits for its due time and sends it; when every
// connection is busy, due ops wait, and their latency — timed from the
// scheduled send — includes that wait, as a user arriving on schedule
// would see it.
func (lg *loadgen) openLoop(ctx context.Context, ops []op, traceEvery int) []record {
	recs := make([]record, len(ops))
	var next atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var w worker
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) || ctx.Err() != nil {
					return
				}
				sleepUntil(t0.Add(ops[i].at))
				rec := &recs[i]
				rec.sched = ops[i].at
				rec.start = time.Since(t0)
				lg.send(ctx, &w, &ops[i], lg.tracedOp(i, traceEvery), t0, rec)
			}
		}()
	}
	wg.Wait()
	return recs
}

// closedLoop runs conns back-to-back clients, each drawing from its own
// stream, for dur; it returns the records of every completed request and
// the elapsed time until the last client stopped.
func (lg *loadgen) closedLoop(ctx context.Context, streams []*opStream, dur time.Duration) ([]record, time.Duration) {
	perWorker := make([][]record, len(streams))
	t0 := time.Now()
	var wg sync.WaitGroup
	for c, s := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var w worker
			for i := 0; time.Since(t0) < dur && ctx.Err() == nil; i++ {
				o := s.next()
				rec := record{start: time.Since(t0)}
				rec.sched = rec.start
				lg.send(ctx, &w, &o, lg.tracedOp(i, 2), t0, &rec)
				perWorker[c] = append(perWorker[c], rec)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)
	var all []record
	for _, r := range perWorker {
		all = append(all, r...)
	}
	return all, elapsed
}

// sleepUntil blocks until t. On Linux time.Sleep rounds a sub-millisecond
// wait up to the runtime poller's millisecond tick when the process is
// otherwise idle, which would make every open-loop send up to a millisecond
// late; nanosleep wakes within microseconds.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR re-enters the loop
	}
}

// backlogMax returns the largest number of ops that were due but not yet
// sent at any send instant of an open-loop phase.
func backlogMax(recs []record) int {
	best := 0
	for i := range recs {
		// recs are in schedule order; ops after i due by i's start were
		// waiting behind it.
		due := 0
		for j := i + 1; j < len(recs) && recs[j].sched <= recs[i].start; j++ {
			due++
		}
		best = max(best, due)
	}
	return best
}

// drain discards a response body so the connection can be reused.
func drain(r io.ReadCloser) {
	_, _ = io.Copy(io.Discard, r)
	_ = r.Close()
}

func durMs(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
