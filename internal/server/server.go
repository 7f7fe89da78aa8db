// Package server implements pegasus-serve, the concurrent summary-serving
// subsystem: an stdlib-only HTTP daemon that loads or builds a graph, holds
// a distributed.Cluster of personalized summaries (one machine when
// unsharded) with one query session per machine, and answers
// node-similarity queries over JSON endpoints. Every query on node q
// is routed to the shard owning q (the routing table of §IV), answered on
// that shard's summary alone, and cached in a sharded LRU with singleflight
// deduplication. A bounded worker pool keeps heavy power iterations from
// exhausting the host, and every computation honors the request context for
// timeouts and cancellation.
//
// Endpoints:
//
//	POST /v1/query/{rwr|hop|php|pagerank|topk}   answer a query (JSON body)
//	GET  /v1/summary/report                      per-shard summary structure
//	POST /v1/summarize                           rebuild with new targets/budget
//	GET  /healthz                                liveness probe
//	GET  /metrics                                QPS, latency percentiles, cache
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"

	"pegasus/internal/distributed"
	"pegasus/internal/graph"
	"pegasus/internal/obs"
	"pegasus/internal/persist"
)

// Server is the serving daemon state. Construct with New, mount Handler on
// any http server (tests use httptest), or let Run manage the listener and
// graceful shutdown.
type Server struct {
	cfg     Config
	g       *graph.Graph
	cache   *Cache
	pool    *Pool
	metrics *Metrics
	// slowlog retains the most recent requests that crossed
	// cfg.SlowLogThreshold, each with its span timeline (GET /debug/slowlog).
	slowlog *obs.SlowLog
	// store is the on-disk artifact store behind cfg.CacheDir (nil when
	// persistence is disabled). Builds consult it before summarizing and
	// persist what they build, making restarts warm.
	store *persist.Store
	// bootStats records how the startup build satisfied each shard — a warm
	// start from a populated cache dir reports Loaded == m, Rebuilt == 0.
	bootStats distributed.BuildStats
	// graphToken is distributed.GraphToken(g), computed once — the graph is
	// immutable for the server's lifetime — and folded into every shard
	// content key.
	graphToken string

	// mu guards backend swaps (POST /v1/summarize) and buildCfg; the atomics
	// below make reads lock-free on the query path.
	mu       sync.Mutex
	buildCfg Config // parameters the current backend was built with
	backend  atomic.Pointer[backendBox]
	gen      atomic.Uint64

	// addr holds the bound listener address once Run starts serving.
	addr atomic.Pointer[string]
}

// backendBox pairs a backend with the generation it was built under, so a
// query observes one consistent (backend, generation) pair.
type backendBox struct {
	be  *backend
	gen uint64
	// shardGens are the per-shard generations the cache keys embed: a shard
	// transplanted by an incremental rebuild keeps the generation of the
	// build that actually produced its artifact, so cached results for that
	// shard — bit-identical by the content-key argument — stay addressable
	// across the rebuild. Rebuilt shards adopt the new generation, which
	// orphans their old entries (LRU pressure evicts them).
	shardGens []uint64
}

// sgen returns the cache-key generation of one shard.
func (b *backendBox) sgen(shard int) uint64 {
	if shard >= 0 && shard < len(b.shardGens) {
		return b.shardGens[shard]
	}
	return b.gen
}

// New builds the serving artifact for g per cfg (this runs summarization and
// can take a while on large graphs) and returns a ready Server.
func New(ctx context.Context, g *graph.Graph, cfg Config) (*Server, error) {
	if ctx == nil {
		ctx = context.Background() //lint:ctxflow nil-ctx compatibility default for direct library construction
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if g == nil || g.NumNodes() == 0 {
		return nil, errors.New("server: nil or empty graph")
	}
	var store *persist.Store
	if cfg.CacheDir != "" {
		var err error
		if store, err = persist.Open(cfg.CacheDir); err != nil {
			return nil, err
		}
	}
	token := distributed.GraphToken(g)
	be, stats, err := buildBackend(ctx, g, cfg, token, nil, store)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:        cfg,
		g:          g,
		store:      store,
		bootStats:  stats,
		graphToken: token,
		buildCfg:   cfg,
		cache:      NewCache(cfg.CacheEntries),
		pool:       NewPool(cfg.Workers),
		metrics:    NewMetrics(be.numShards()),
		slowlog:    obs.NewSlowLog(cfg.SlowLogEntries),
	}
	s.gcStore(be.c.Keys)
	shardGens := make([]uint64, be.numShards())
	for i := range shardGens {
		shardGens[i] = 1
	}
	s.backend.Store(&backendBox{be: be, gen: 1, shardGens: shardGens})
	s.gen.Store(1)
	return s, nil
}

// gcStore trims the artifact store to the given live key set after a
// successful build: content addressing makes anything outside the serving
// keys unreachable (re-deriving a key re-derives its bytes), so removal
// only reclaims disk.
func (s *Server) gcStore(keys []string) {
	if s.store == nil {
		return
	}
	live := make(map[string]bool, len(keys))
	for _, k := range keys {
		live[k] = true
	}
	_, _ = s.store.GC(func(k string) bool { return live[k] })
}

// BootStats reports how the startup build satisfied each shard: a warm
// start from a populated cache dir loads every shard from disk
// (Loaded == shards, Rebuilt == 0); a cold start builds them all.
func (s *Server) BootStats() distributed.BuildStats { return s.bootStats }

// Config returns the effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Graph returns the graph the server was built from.
func (s *Server) Graph() *graph.Graph { return s.g }

// current returns the active backend and its generation.
func (s *Server) current() *backendBox { return s.backend.Load() }

// rebuild replaces the backend incrementally and bumps the generation:
// only shards whose content key changed are rebuilt, the rest transplant
// their summaries (and keep their per-shard cache generation, so their
// cached answers — including ranked top-k entries — survive the swap).
// apply derives the new build config from the current one; it runs under
// s.mu so concurrent re-summarize requests compose instead of losing each
// other's overrides. Rebuilds serialize on s.mu; queries keep flowing
// against the old backend until the swap. Returns the box it stored plus
// the per-shard build stats, so the /v1/summarize response describes this
// rebuild even when a concurrent one lands right after.
func (s *Server) rebuild(ctx context.Context, apply func(Config) Config) (*backendBox, distributed.BuildStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cfg := apply(s.buildCfg)
	old := s.current()
	be, stats, err := buildBackend(ctx, s.g, cfg, s.graphToken, old, s.store)
	if err != nil {
		return nil, stats, err
	}
	gen := s.gen.Add(1)
	// Carry a reused shard's generation forward ONLY on a same-index key
	// match. Cache keys are node-scoped and do not name the shard, so the
	// carried generation must certify "shard i's artifact is unchanged" —
	// a cross-index transplant (shard i reusing a machine that sat at
	// index j of the previous cluster) still saves the build but must take
	// the new generation, or entries node→shard-i cached under shard i's
	// old artifact could be served against the transplanted one.
	keys, oldKeys := be.c.Keys, old.be.c.Keys
	shardGens := make([]uint64, be.numShards())
	for i := range shardGens {
		shardGens[i] = gen
		if i < len(stats.ReusedShards) && stats.ReusedShards[i] &&
			i < len(oldKeys) && i < len(old.shardGens) && keys[i] == oldKeys[i] {
			shardGens[i] = old.shardGens[i]
		}
	}
	box := &backendBox{be: be, gen: gen, shardGens: shardGens}
	s.backend.Store(box)
	s.buildCfg = cfg
	// Cache retention rule: when at least one shard was reused, its entries
	// (addressed by the carried-over shard generation) are still valid and
	// stay; stale entries of rebuilt shards are unreachable — their shard
	// generation advanced — and age out under LRU pressure. A full rebuild
	// has nothing worth keeping, so purge eagerly.
	if stats.Reused == 0 {
		s.cache.Purge()
	}
	s.gcStore(keys)
	s.metrics.ObserveRebuild(stats.Rebuilt, stats.Reused, stats.Loaded)
	return box, stats, nil
}

// Addr returns the bound listener address once Run is serving ("" before).
func (s *Server) Addr() string {
	if p := s.addr.Load(); p != nil {
		return *p
	}
	return ""
}

// Run listens on cfg.Addr and serves until ctx is cancelled, then drains
// in-flight requests for up to cfg.ShutdownGrace. It returns nil on a clean
// shutdown.
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("server: listen: %w", err)
	}
	bound := ln.Addr().String()
	s.addr.Store(&bound)

	hs := &http.Server{
		Handler: s.Handler(),
		BaseContext: func(net.Listener) context.Context {
			return context.WithoutCancel(ctx)
		},
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	//lint:ctxflow the serve ctx is already cancelled here; the drain budget must be a fresh root or Shutdown would return immediately
	shutdownCtx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("server: shutdown: %w", err)
	}
	<-errc // always http.ErrServerClosed after a clean Shutdown
	return nil
}
