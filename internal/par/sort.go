package par

import "slices"

// SortUint64 is the ingest pipeline's parallel sort of packed edge keys:
// per-block sorts followed by pairwise merge rounds, with an output
// identical for every worker count. KeySorter is the sequential stable
// radix sort behind the engine's candidate grouping.

// sortMinBlock is the smallest block worth its own goroutine: below this
// the spawn/merge overhead exceeds the sorting work and we sort inline.
const sortMinBlock = 1 << 15

// SortUint64 sorts s ascending with up to `workers` goroutines (0 =
// GOMAXPROCS): the slice is cut into equal blocks, each block is sorted
// concurrently, and sorted blocks are combined by pairwise merge rounds.
// Identical multisets produce identical outputs for any worker count
// (uint64 values are indistinguishable under ==, so ties cannot reorder
// observably).
func SortUint64(s []uint64, workers int) {
	blocks := blockCount(len(s), workers)
	if blocks <= 1 {
		slices.Sort(s)
		return
	}
	bounds := blockBounds(len(s), blocks)
	ForEach(workers, blocks, func(_, b int) {
		slices.Sort(s[bounds[b]:bounds[b+1]])
	})
	scratch := make([]uint64, len(s))
	mergeRounds(s, scratch, bounds, workers, func(dst, a, b []uint64) {
		i, j, k := 0, 0, 0
		for i < len(a) && j < len(b) {
			if a[i] <= b[j] {
				dst[k] = a[i]
				i++
			} else {
				dst[k] = b[j]
				j++
			}
			k++
		}
		copy(dst[k:], a[i:])
		copy(dst[k+len(a)-i:], b[j:])
	})
}

const (
	radixBits    = 8
	radixBuckets = 1 << radixBits
	radixPasses  = 64 / radixBits
)

// KeySorter stably sorts parallel (uint64 key, uint32 payload) arrays by
// key with an LSD radix sort, the workhorse of the engine's sort-based
// candidate grouping: shingles are the keys, supernode slots the payloads,
// and stability means equal-shingle slots keep their input order. The zero
// value is ready to use; the ping-pong and histogram scratch is retained
// across calls, so steady-state sorts allocate nothing.
type KeySorter struct {
	k      []uint64
	v      []uint32
	counts [radixBuckets]int
}

// Sort reorders keys ascending and applies the same permutation to vals
// (len(vals) must equal len(keys)). Each of the eight byte-digit passes
// counts the digits, turns the counts into stable start offsets and
// scatters; passes whose digit is constant across all keys are skipped.
func (s *KeySorter) Sort(keys []uint64, vals []uint32) {
	n := len(keys)
	if len(vals) != n {
		panic("par: KeySorter key/value length mismatch")
	}
	if n < 2 {
		return
	}
	if cap(s.k) < n {
		s.k = make([]uint64, n)
		s.v = make([]uint32, n)
	}
	srcK, srcV := keys, vals
	dstK, dstV := s.k[:n], s.v[:n]
	for pass := 0; pass < radixPasses; pass++ {
		shift := pass * radixBits
		counts := &s.counts
		clear(counts[:])
		for _, k := range srcK {
			counts[int(k>>shift)&(radixBuckets-1)]++
		}
		if counts[int(srcK[0]>>shift)&(radixBuckets-1)] == n {
			continue // every key has this digit: the pass is a no-op
		}
		// Turn counts into stable start offsets.
		pos := 0
		for d := range counts {
			counts[d], pos = pos, pos+counts[d]
		}
		for i, k := range srcK {
			d := int(k>>shift) & (radixBuckets - 1)
			j := counts[d]
			counts[d]++
			dstK[j] = k
			dstV[j] = srcV[i]
		}
		srcK, srcV, dstK, dstV = dstK, dstV, srcK, srcV
	}
	if &srcK[0] != &keys[0] {
		copy(keys, srcK)
		copy(vals, srcV)
	}
}

// blockCount picks how many sorted blocks to produce for n elements.
func blockCount(n, workers int) int {
	blocks := Workers(workers)
	if max := n / sortMinBlock; blocks > max {
		blocks = max
	}
	return blocks
}

// blockBounds cuts [0,n) into `blocks` near-equal contiguous ranges.
func blockBounds(n, blocks int) []int {
	bounds := make([]int, blocks+1)
	for b := 0; b <= blocks; b++ {
		bounds[b] = int(int64(b) * int64(n) / int64(blocks))
	}
	return bounds
}

// mergeRounds combines adjacent sorted runs of s (delimited by bounds) with
// pairwise merge rounds between s and scratch, using `merge` to combine two
// adjacent runs, and leaves the fully merged result in s.
func mergeRounds[T any](s, scratch []T, bounds []int, workers int, merge func(dst, a, b []T)) {
	src, dst := s, scratch
	for len(bounds) > 2 {
		nb := make([]int, 0, len(bounds)/2+1)
		nb = append(nb, 0)
		pairs := (len(bounds) - 1) / 2
		ForEach(workers, pairs, func(_, p int) {
			lo, mid, hi := bounds[2*p], bounds[2*p+1], bounds[2*p+2]
			merge(dst[lo:hi], src[lo:mid], src[mid:hi])
		})
		for p := 0; p < pairs; p++ {
			nb = append(nb, bounds[2*p+2])
		}
		if len(bounds)%2 == 0 { // odd run out: carry it over
			lo, hi := bounds[len(bounds)-2], bounds[len(bounds)-1]
			copy(dst[lo:hi], src[lo:hi])
			nb = append(nb, hi)
		}
		bounds = nb
		src, dst = dst, src
	}
	if len(s) > 0 && &src[0] != &s[0] {
		copy(s, src)
	}
}
