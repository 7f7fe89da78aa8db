package selection

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestKthLargestSmall(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	cases := []struct {
		k    int
		want float64
	}{
		{1, 9}, {2, 6}, {3, 5}, {4, 4}, {5, 3}, {6, 2}, {7, 1}, {8, 1},
	}
	for _, c := range cases {
		if got := KthLargest(xs, c.k); got != c.want {
			t.Errorf("KthLargest(k=%d) = %v, want %v", c.k, got, c.want)
		}
	}
}

func TestInputNotMutated(t *testing.T) {
	xs := []float64{5, 4, 3, 2, 1, 0, -1, 7, 8, 9, 2, 2}
	cp := append([]float64(nil), xs...)
	KthLargest(xs, 4)
	for i := range xs {
		if xs[i] != cp[i] {
			t.Fatal("input slice was mutated")
		}
	}
}

func TestPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { KthLargest(nil, 1) },
		func() { KthLargest([]float64{1}, 0) },
		func() { KthLargest([]float64{1}, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestPropertyMatchesSort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		xs := make([]float64, n)
		for i := range xs {
			// Include duplicates deliberately.
			xs[i] = float64(rng.Intn(20))
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for trial := 0; trial < 5; trial++ {
			k := 1 + rng.Intn(n)
			if KthLargest(xs, k) != sorted[n-k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeAllEqual(t *testing.T) {
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = 3.14
	}
	if got := KthLargest(xs, 5000); got != 3.14 {
		t.Fatalf("got %v, want 3.14", got)
	}
}

func BenchmarkKthLargest(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KthLargest(xs, len(xs)/10)
	}
}
