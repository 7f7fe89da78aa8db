package core

import (
	"context"

	"pegasus/internal/graph"
	"pegasus/internal/minhash"
	"pegasus/internal/obs"
	"pegasus/internal/par"
)

// Candidate generation (§III-C): supernodes are grouped by the shingle
//
//	F(U) = min_{u∈U} min_{v∈N_u∪{u}} f(v)
//
// under a fresh uniform hash f each iteration; two supernodes collide with
// probability equal to the Jaccard similarity of their members' closed
// neighborhoods, so groups collect supernodes with similar connectivity.
// Oversized groups are recursively re-divided with fresh hashes up to
// MaxSplitDepth times, then randomly chopped to at most MaxGroupSize.
// Singleton groups are discarded (nothing to merge).
//
// Grouping is sort-based and parallel: per-supernode shingles are packed
// into parallel (shingle key, slot payload) arrays and stably sorted with
// par.KeySorter, and equal-shingle runs become the groups. Because slots
// enter every division step in ascending order and the sort is stable,
// equal-shingle slots stay ascending: the groups match byte for byte those
// of the map-based reference grouping in candgroup_test.go, for every
// worker count. The per-depth shingle vectors, the packed key/slot arrays
// and the sorter's radix scratch live on the engine and are reused across
// iterations, so steady-state candidate generation allocates only the
// emitted group slices.

// nodeShinglesInto computes, for one hash function, the per-node closed
// neighborhood min-hash: h_u = min over v ∈ N_u ∪ {u} of f(v), into out
// (len(out) == |V|). Each node's shingle depends only on its own closed
// neighborhood, so the O(V+E) scan is range-sharded across cfg.Workers
// goroutines; the output is identical for any worker count.
func (e *engine) nodeShinglesInto(seed uint64, out []uint64) {
	h := minhash.New(seed)
	par.Range(e.cfg.Workers, len(out), func(lo, hi int) {
		e.shingleRange(h, out, lo, hi)
	})
}

// shingleRange is one worker's contiguous share of a node-shingle scan.
//
//pegasus:hotpath candidate generation scans all V+E per depth per iteration
func (e *engine) shingleRange(h minhash.Hash, out []uint64, lo, hi int) {
	for u := lo; u < hi; u++ {
		best := h.Uint64(uint32(u))
		for _, v := range e.g.Neighbors(graph.NodeID(u)) {
			if hv := h.Uint64(uint32(v)); hv < best {
				best = hv
			}
		}
		out[u] = best
	}
}

// shingleAt returns the per-node shingle vector of one division depth,
// computing it at most once per (iteration, depth): the engine keeps one
// buffer per depth, tagged with the seed that filled it, and reuses it
// across iterations instead of allocating |V| words per depth per
// iteration.
func (e *engine) shingleAt(ctx context.Context, iter, depth int, baseSeed uint64) []uint64 {
	seed := baseSeed + uint64(depth)*0x9e3779b1
	for depth >= len(e.shingleBuf) {
		e.shingleBuf = append(e.shingleBuf, nil)
		e.shingleSeed = append(e.shingleSeed, 0)
	}
	if e.shingleBuf[depth] != nil && e.shingleSeed[depth] == seed {
		return e.shingleBuf[depth]
	}
	if e.shingleBuf[depth] == nil {
		e.shingleBuf[depth] = make([]uint64, e.g.NumNodes())
	}
	_, sp := obs.StartSpan(ctx, "build.shingle")
	e.nodeShinglesInto(seed, e.shingleBuf[depth])
	sp.AttrInt("iteration", iter)
	sp.AttrInt("depth", depth)
	sp.End()
	e.shingleSeed[depth] = seed
	return e.shingleBuf[depth]
}

// superShingle folds node shingles to F(U) = min over members.
func superShingle(nodeMin []uint64, members []graph.NodeID) uint64 {
	best := ^uint64(0)
	for _, u := range members {
		if v := nodeMin[u]; v < best {
			best = v
		}
	}
	return best
}

// packShingleKeys fills the engine's parallel key/slot arrays with each
// slot's shingle under the depth's node-shingle vector.
//
//pegasus:hotpath runs once per slot per division step of every iteration
func (e *engine) packShingleKeys(slots []uint32, nodeMin []uint64) {
	keys, pay := e.keyBuf[:0], e.slotBuf[:0]
	for _, a := range slots {
		keys = append(keys, superShingle(nodeMin, e.members[a]))
		pay = append(pay, a)
	}
	e.keyBuf, e.slotBuf = keys, pay
}

// divideByShingle performs one division step: group slots by their shingle
// under nodeMin via a parallel stable radix sort of the packed (shingle,
// slot) keys. It returns the non-singleton groups in ascending shingle
// order (each group's slots ascending — the input order, preserved by
// stability since slots arrive sorted) and whether the hash split the
// slots at all. A false split means every slot shares one shingle (e.g.
// identical closed neighborhoods everywhere) and the caller should descend
// with the next hash.
func (e *engine) divideByShingle(slots []uint32, nodeMin []uint64) (groups [][]uint32, split bool) {
	e.packShingleKeys(slots, nodeMin)
	keys, pay := e.keyBuf, e.slotBuf
	e.sorter.Sort(keys, pay, e.cfg.Workers)
	if len(keys) > 0 && keys[0] == keys[len(keys)-1] {
		return nil, false
	}
	for lo := 0; lo < len(keys); {
		hi := lo + 1
		for hi < len(keys) && keys[hi] == keys[lo] {
			hi++
		}
		if hi-lo > 1 {
			groups = append(groups, append([]uint32(nil), pay[lo:hi]...))
		}
		lo = hi
	}
	return groups, true
}

// work is one pending division step of the candidate-group recursion.
type work struct {
	slots []uint32
	depth int
}

// candidateGroups produces this iteration's groups of supernodes with
// similar connectivity (Alg. 1 line 4). The first level groups by shingle,
// deeper levels only re-divide groups exceeding MaxGroupSize, and the
// depth cap chops randomly. The queue is processed LIFO and groups are
// pushed in ascending shingle order, which fixes the order of the RNG
// draws (chop shuffles, final exploration shuffle). ctx carries the build
// trace (if any); the shingle scans inside record "build.shingle" spans.
// Tracing never touches e.rng, so grouping is bit-identical with or
// without it.
func (e *engine) candidateGroups(ctx context.Context, iter int) [][]uint32 {
	if e.cfg.RandomGroups {
		return e.randomGroups()
	}
	baseSeed := uint64(e.cfg.Seed)*0x9e3779b97f4a7c15 + uint64(iter)*0x100000001b3

	queue := []work{{slots: e.aliveSlots(), depth: 0}}
	var result [][]uint32
	for len(queue) > 0 {
		w := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if len(w.slots) <= 1 {
			continue
		}
		if w.depth > 0 && len(w.slots) <= e.cfg.MaxGroupSize {
			result = append(result, w.slots)
			continue
		}
		if w.depth >= e.cfg.MaxSplitDepth {
			// Random chop into MaxGroupSize chunks.
			e.rng.Shuffle(len(w.slots), func(i, j int) {
				w.slots[i], w.slots[j] = w.slots[j], w.slots[i]
			})
			for start := 0; start < len(w.slots); start += e.cfg.MaxGroupSize {
				end := start + e.cfg.MaxGroupSize
				if end > len(w.slots) {
					end = len(w.slots)
				}
				if end-start > 1 {
					result = append(result, w.slots[start:end])
				}
			}
			continue
		}
		nm := e.shingleAt(ctx, iter, w.depth, baseSeed)
		groups, split := e.divideByShingle(w.slots, nm)
		if !split {
			// The hash failed to split; descend with the next hash, which
			// will eventually hit the depth cap and chop randomly.
			queue = append(queue, work{slots: w.slots, depth: w.depth + 1})
			continue
		}
		for _, grp := range groups {
			queue = append(queue, work{slots: grp, depth: w.depth + 1})
		}
	}
	// Deterministic processing order with a shuffle for exploration.
	e.rng.Shuffle(len(result), func(i, j int) { result[i], result[j] = result[j], result[i] })
	return result
}

// randomGroups is the connectivity-blind ablation: shuffle the alive
// supernodes and chop them into MaxGroupSize chunks.
func (e *engine) randomGroups() [][]uint32 {
	slots := e.aliveSlots()
	e.rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	var result [][]uint32
	for start := 0; start < len(slots); start += e.cfg.MaxGroupSize {
		end := start + e.cfg.MaxGroupSize
		if end > len(slots) {
			end = len(slots)
		}
		if end-start > 1 {
			result = append(result, slots[start:end])
		}
	}
	return result
}
