package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
}

func TestRangeCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 100, 5000} {
		for _, w := range []int{1, 2, 7} {
			seen := make([]int32, n)
			Range(w, n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d w=%d: index %d visited %d times", n, w, i, c)
				}
			}
		}
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 1000} {
		for _, w := range []int{1, 2, 8} {
			seen := make([]int32, n)
			ForEach(w, n, func(worker, i int) {
				if worker < 0 || worker >= Workers(w) {
					t.Errorf("worker id %d out of range", worker)
				}
				atomic.AddInt32(&seen[i], 1)
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d w=%d: index %d visited %d times", n, w, i, c)
				}
			}
		}
	}
}

// TestForEachInlineIsOrdered: the workers<=1 path must run in index order on
// the caller, as a plain sequential loop would.
func TestForEachInlineIsOrdered(t *testing.T) {
	var order []int
	ForEach(1, 5, func(worker, i int) {
		if worker != 0 {
			t.Errorf("inline worker id = %d", worker)
		}
		order = append(order, i)
	})
	for i, v := range order {
		if i != v {
			t.Fatalf("inline order %v not ascending", order)
		}
	}
}
