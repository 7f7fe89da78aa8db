package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pegasus"
)

// serverConfig is the deployment every workload measures: 2 shards with
// random partitioning, the server defaults otherwise (BudgetRatio 0.5, a
// 4096-entry result cache, a GOMAXPROCS-slot pool), and a cache dir as a
// -cache-dir deployment runs.
func serverConfig(in *inputs, dir string) pegasus.ServerConfig {
	return pegasus.ServerConfig{
		Addr:            "127.0.0.1:0",
		Shards:          shards,
		PartitionMethod: pegasus.PartitionRandom,
		Targets:         in.targets,
		Seed:            in.serverSeed,
		CacheDir:        dir,
	}
}

// served is one running server and what its boot cost.
type served struct {
	srv    *pegasus.Server
	base   string
	dir    string
	cancel context.CancelFunc
	done   chan error

	setup    time.Duration
	ingest   time.Duration
	rawBytes int64
	build    *pegasus.Trace // the boot's build timeline; nil unless traced
}

// ctlClient carries the control-plane requests (health, metrics, reports,
// rebuilds, probes) on a connection of its own, apart from the load.
var ctlClient = &http.Client{Timeout: 5 * time.Minute}

// boot runs one cold boot into an empty cache dir and times it from the
// gzip SNAP bytes in memory to the first 200 from GET /healthz: ingest,
// partition, sharded build, artifact writes and the listener. traced
// attaches a trace to the context NewServer builds under.
func boot(ctx context.Context, in *inputs, dir string, traced bool) (*served, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sv := &served{dir: dir, done: make(chan error, 1)}
	bctx := ctx
	if traced {
		sv.build = pegasus.NewTrace()
		bctx = pegasus.ContextWithTrace(ctx, sv.build)
	}
	t0 := time.Now()
	res, err := pegasus.IngestEdgeListBytes(in.snap, pegasus.IngestOptions{})
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	sv.ingest = time.Since(t0)
	sv.rawBytes = res.Stats.Bytes
	s, err := pegasus.NewServer(bctx, res.Graph, serverConfig(in, dir))
	if err != nil {
		return nil, fmt.Errorf("build server: %w", err)
	}
	sv.srv = s
	rctx, cancel := context.WithCancel(ctx)
	sv.cancel = cancel
	go func() { sv.done <- s.Run(rctx) }()
	for s.Addr() == "" {
		select {
		case err := <-sv.done:
			cancel()
			return nil, fmt.Errorf("serve: %v", err)
		case <-time.After(20 * time.Microsecond):
		}
	}
	sv.base = "http://" + s.Addr()
	for {
		resp, err := ctlClient.Get(sv.base + "/healthz")
		if err == nil {
			drain(resp.Body)
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case <-ctx.Done():
			sv.stop()
			return nil, ctx.Err()
		case <-time.After(20 * time.Microsecond):
		}
	}
	sv.setup = time.Since(t0)
	return sv, nil
}

// stop shuts the server down, waits for Run to return and removes the
// cache dir.
func (sv *served) stop() error {
	sv.cancel()
	err := <-sv.done
	if rerr := os.RemoveAll(sv.dir); err == nil {
		err = rerr
	}
	ctlClient.CloseIdleConnections()
	return err
}

// getJSON decodes the JSON answer of GET path into v.
func (sv *served) getJSON(path string, v any) error {
	resp, err := ctlClient.Get(sv.base + path)
	if err != nil {
		return err
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// post sends body to path and returns the status and raw answer.
func (sv *served) post(path string, body []byte) (int, []byte, error) {
	resp, err := ctlClient.Post(sv.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// shardReports are the per-shard reports of GET /v1/summary/report.
type shardReports struct {
	Generation uint64                  `json:"generation"`
	Shards     []pegasus.SummaryReport `json:"shards"`
}

// artifacts decodes the shard summaries the server filed in its cache dir
// and orders them by shard, matching each to the shard whose report it
// reproduces.
func (sv *served) artifacts(rep shardReports) ([]*pegasus.Summary, error) {
	files, err := filepath.Glob(filepath.Join(sv.dir, "*.pgsum"))
	if err != nil {
		return nil, err
	}
	if len(files) != len(rep.Shards) {
		return nil, fmt.Errorf("cache dir holds %d artifacts for %d shards", len(files), len(rep.Shards))
	}
	out := make([]*pegasus.Summary, len(rep.Shards))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		a, err := pegasus.DecodeArtifact(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", filepath.Base(f), err)
		}
		if a.Summary == nil {
			return nil, fmt.Errorf("%s holds no summary", filepath.Base(f))
		}
		d := a.Summary.Describe()
		matched := false
		for i, r := range rep.Shards {
			if out[i] == nil && d == r {
				out[i], matched = a.Summary, true
				break
			}
		}
		if !matched {
			return nil, fmt.Errorf("%s matches no served shard report", strings.TrimSuffix(filepath.Base(f), ".pgsum"))
		}
	}
	return out, nil
}
