package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"

	"pegasus"
)

// workload is one seeded scenario. Every workload runs the same pipeline —
// cold boots and target-swap rebuilds, a warm-up over T, an open-loop phase,
// a closed-loop phase and an output probe — so every end-to-end metric is
// measured on each. They differ in graph size, how the run's time is split
// between builds and reads, where queries land and the open-loop rate,
// which is what makes each one stress a different layer.
type workload struct {
	name string
	why  string
	// nodes is the size of the Barabási–Albert graph (baEdgesPerNode edges
	// per new node, the shape of the S5 scale tier).
	nodes int
	// setups is the number of cold boots timed for setup_s: the serving
	// server's, then setups-1 later boots, one after each slice of the open
	// loop (see runTraffic). Each later boot makes swapsPerBoot target swaps
	// on its own server, timed for rebuild_s, so the serving server keeps
	// the boot targets.
	setups int
	// hot draws query nodes Zipf-distributed over T; otherwise every cache
	// key is drawn once before any repeats (see opStream).
	hot bool
	// rate is the open-loop Poisson arrival rate, requests per second. It
	// sits far below capacity: when the host slows, a rate near capacity
	// turns the slowdown into queueing (serve-cold at 150 req/s ran a
	// median latency 3× its usual in two of ten runs).
	rate float64
	// traffic is the length of the open- and closed-loop phases together,
	// as a multiple of --seconds.
	traffic float64
}

const (
	// swapsPerBoot is the number of POST /v1/summarize target swaps each
	// later boot makes: to T with its part-0 members replaced and back, so
	// each rebuilds one shard and reuses the other. One swap varies by about
	// 15% from the next within a run, so rebuild_s, their median, needs
	// more of them than there are boots.
	swapsPerBoot   = 2
	baEdgesPerNode = 8
	// targetShare is |T|/|V|.
	targetShare = 0.01
	// probeCount is the size of the RWR quality probe set.
	probeCount = 20
	// shards and the server defaults below are the configuration every
	// workload deploys.
	shards = 2
)

var workloads = []workload{
	{
		name: "boot", nodes: 6000, setups: 6, hot: true, rate: 1000, traffic: 0.25,
		why: "6000-node graph: 6 cold boots and 10 one-shard target swaps take most of the run, so the build phases (merge above all) set setup_s and rebuild_s; brief hot reads at 1000 req/s",
	},
	{
		name: "serve-hot", nodes: 2000, setups: 7, hot: true, rate: 2000, traffic: 1.5,
		why: "2000-node graph, Zipf reads over T after warm-up at 2000 req/s: every answer is a cache hit, so handler, cache, JSON and loopback costs set latency",
	},
	{
		name: "serve-cold", nodes: 2000, setups: 7, hot: false, rate: 100, traffic: 1,
		why: "same server, reads at 100 req/s that draw each node of V once: every RWR answer runs a power iteration under the 2-slot pool, so query kernels and pool wait set latency",
	},
}

// rebuilds is the number of target swaps a run of w times for rebuild_s.
func (w workload) rebuilds() int { return swapsPerBoot * (w.setups - 1) }

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// subSeed derives an independent seed for one input from a base seed, so
// adding an input never shifts the draws of another.
func subSeed(seed int64, tag string) int64 {
	h := fnv.New64a()
	h.Write([]byte(tag))
	z := uint64(seed) ^ h.Sum64()
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// inputs is everything a run feeds the program. The deployment — graph, T,
// the server's seed and the swap targets — and the probe set that scores it
// derive from the deployment seed; the traffic derives from the run seed.
// They are kept apart because the cost of a served RWR query is a property
// of the shard summary it runs on: on one 2000-node graph the median query
// took 4.6 ms on one shard and 20.1 ms on the other, so a deployment drawn
// per run seed would spread every cold-path metric across seeds by far more
// than any regression bound. A claim is rechecked on an unseen deployment
// with -deploy-seed. The server only ever sees snap and HTTP requests.
type inputs struct {
	src         *pegasus.Graph
	snap        []byte // gzip SNAP edge list of src
	fingerprint string
	serverSeed  int64
	// targets is T, ascending; swapB is T with its part-0 members replaced
	// by as many other part-0 nodes. Swaps alternate between the two.
	targets []pegasus.NodeID
	swapB   []pegasus.NodeID
	// labels is the node→shard partition the server derives from
	// (graph, shards, "random", serverSeed).
	labels []uint32
	probes []pegasus.NodeID
}

func makeInputs(w workload, deploy int64) (*inputs, error) {
	in := &inputs{serverSeed: subSeed(deploy, "server")}
	in.src = pegasus.GenerateBA(w.nodes, baEdgesPerNode, subSeed(deploy, "graph"))
	in.fingerprint = pegasus.GraphFingerprint(in.src)
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := pegasus.WriteSNAP(zw, in.src); err != nil {
		return nil, fmt.Errorf("encode SNAP: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("gzip SNAP: %w", err)
	}
	in.snap = buf.Bytes()

	labels, err := pegasus.PartitionGraph(in.src, shards, pegasus.PartitionRandom, in.serverSeed)
	if err != nil {
		return nil, err
	}
	in.labels = labels
	n := in.src.NumNodes()
	rng := rand.New(rand.NewSource(subSeed(deploy, "targets")))
	perm := rng.Perm(n)
	k := max(2, int(targetShare*float64(n)))
	in.targets = toNodes(perm[:k])
	slices.Sort(in.targets)

	// swapB keeps T's part-1 members and draws fresh part-0 members from
	// the nodes outside T, in the order of the same permutation.
	var inPart0 int
	for _, t := range in.targets {
		if labels[t] == 0 {
			inPart0++
		} else {
			in.swapB = append(in.swapB, t)
		}
	}
	if inPart0 == 0 || inPart0 == len(in.targets) {
		return nil, fmt.Errorf("targets do not span both parts (%d of %d in part 0)", inPart0, len(in.targets))
	}
	for _, u := range perm[k:] {
		if inPart0 == 0 {
			break
		}
		if labels[u] == 0 {
			in.swapB = append(in.swapB, pegasus.NodeID(u))
			inPart0--
		}
	}
	slices.Sort(in.swapB)

	prng := rand.New(rand.NewSource(subSeed(deploy, "probes")))
	if w.hot {
		pool := slices.Clone(in.targets)
		prng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		in.probes = pool[:min(probeCount, len(pool))]
	} else {
		in.probes = toNodes(prng.Perm(n)[:probeCount])
	}
	return in, nil
}

func toNodes(xs []int) []pegasus.NodeID {
	out := make([]pegasus.NodeID, len(xs))
	for i, x := range xs {
		out[i] = pegasus.NodeID(x)
	}
	return out
}
