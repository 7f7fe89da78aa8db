package distributed

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"pegasus/internal/graph"
)

// Content keys make shard-summary reuse provably safe: a shard's key is a
// fingerprint of every input that determines its build output — the graph,
// the shard's resolved target set, its budget share, and the summarizer
// configuration (core.Config.ContentKey). Two builds with equal keys
// produce bit-identical artifacts (a build is deterministic for a fixed
// seed, see DESIGN.md), so an incremental rebuild may transplant the
// previous machine instead of rebuilding it.

// GraphToken fingerprints a graph's full structure (node count plus every
// edge). It is the "graph generation" component of a shard content key: a
// previous cluster built from a structurally different graph can never be
// mistaken for reusable. One O(|V|+|E|) scan — negligible next to a
// summary build.
func GraphToken(g *graph.Graph) string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(g.NumNodes()))
	h.Write(buf[:])
	g.Edges(func(u, v graph.NodeID) bool {
		binary.LittleEndian.PutUint32(buf[:4], uint32(u))
		binary.LittleEndian.PutUint32(buf[4:], uint32(v))
		h.Write(buf[:])
		return true
	})
	return hex.EncodeToString(h.Sum(nil))
}

// ShardKey computes the content key of one shard-summary build: the graph
// token, the shard's resolved target set (order-sensitive — permuted target
// lists fingerprint differently rather than risk a false reuse), the budget
// share in exact bit pattern, and the summarizer config key.
func ShardKey(graphToken string, targets []graph.NodeID, budgetBits float64, cfgKey string) string {
	h := sha256.New()
	h.Write([]byte(graphToken))
	h.Write([]byte{0})
	h.Write([]byte(cfgKey))
	h.Write([]byte{0})
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(budgetBits))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(len(targets)))
	h.Write(buf[:])
	for _, t := range targets {
		binary.LittleEndian.PutUint32(buf[:4], uint32(t))
		h.Write(buf[:4])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// BuildStats reports how an incremental cluster build satisfied each shard:
// every shard is exactly one of rebuilt, reused (in-memory transplant from
// Prev), or loaded (decoded from the artifact store), so
// Rebuilt + Reused + Loaded equals the machine count.
type BuildStats struct {
	// Rebuilt is the number of shards whose summary was built from scratch.
	Rebuilt int
	// Reused is the number of shards transplanted from the previous cluster.
	Reused int
	// Loaded is the number of shards decoded from the on-disk artifact
	// store (BuildOpts.Store) — disk hits with the same bit-identity
	// guarantee as Reused.
	Loaded int
	// ReusedShards[i] reports whether shard i was transplanted (always
	// len m; all false when reuse was not possible).
	ReusedShards []bool
	// LoadedShards[i] reports whether shard i was decoded from the store
	// (always len m; all false when no store was configured).
	LoadedShards []bool
}
