// Package par provides small deterministic data-parallel primitives: the
// range and work-stealing loops behind ingest, CSR assembly and concurrent
// shard builds, and the sorts of sort.go. Every parallel helper divides
// work into index ranges whose outputs land in disjoint slice regions, so
// results are bit-identical for any worker count — parallelism changes
// wall-clock time, never the answer.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// minPerWorker is the smallest range worth a goroutine: below this the
// spawn/join overhead exceeds the work and Range runs inline.
const minPerWorker = 1024

// Workers resolves a worker-count setting: 0 selects GOMAXPROCS, anything
// else is returned as given (callers validate negatives at config time).
func Workers(w int) int {
	if w == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// Range runs fn over [0,n) split into at most `workers` contiguous chunks,
// one goroutine per chunk, and waits for all of them. With workers <= 1 or a
// small n it simply calls fn(0, n) inline. fn must only write state owned by
// its own index range.
func Range(workers, n int, fn func(lo, hi int)) {
	workers = Workers(workers)
	if max := n / minPerWorker; workers > max {
		workers = max
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ForEach runs fn for every index in [0,n) over a work-stealing pool of at
// most `workers` goroutines (0 = GOMAXPROCS) and waits for all of them.
// Unlike Range, indices are handed out dynamically, so it suits tasks of
// uneven cost (per-shard summary builds, ingest chunks). The first
// argument to fn identifies the executing worker in [0,workers), letting
// callers keep per-worker scratch; fn must not assume which indices land on
// which worker. With workers <= 1 (or n <= 1) indices run inline on the
// caller, in order, as worker 0.
func ForEach(workers, n int, fn func(worker, i int)) {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}
