package minhash

import (
	"math"
	"math/rand"
	"testing"
)

func TestDeterminism(t *testing.T) {
	h1 := New(42)
	h2 := New(42)
	for x := uint32(0); x < 100; x++ {
		if h1.Uint64(x) != h2.Uint64(x) {
			t.Fatal("same seed must give same hash")
		}
	}
	h3 := New(43)
	diff := 0
	for x := uint32(0); x < 100; x++ {
		if h1.Uint64(x) != h3.Uint64(x) {
			diff++
		}
	}
	if diff < 95 {
		t.Fatalf("different seeds collide too much: %d/100 differ", diff)
	}
}

func TestUniformity(t *testing.T) {
	// Bucket 64k consecutive IDs into 16 buckets by top bits; expect roughly
	// uniform occupancy (within 10%).
	h := New(7)
	const n = 1 << 16
	buckets := make([]int, 16)
	for x := uint32(0); x < n; x++ {
		buckets[h.Uint64(x)>>60]++
	}
	want := float64(n) / 16
	for i, c := range buckets {
		if math.Abs(float64(c)-want) > 0.1*want {
			t.Fatalf("bucket %d has %d items, want ~%.0f", i, c, want)
		}
	}
}

func TestJaccardEstimate(t *testing.T) {
	// The probability two sets share a min-hash equals their Jaccard
	// similarity. Estimate over many seeds and compare.
	rng := rand.New(rand.NewSource(11))
	a := make([]uint32, 0, 40)
	b := make([]uint32, 0, 40)
	// |A∩B| = 20, |A∪B| = 60 → J = 1/3.
	for i := 0; i < 20; i++ {
		x := uint32(rng.Intn(100000))
		a = append(a, x)
		b = append(b, x)
	}
	for i := 0; i < 20; i++ {
		a = append(a, uint32(100000+rng.Intn(100000)))
		b = append(b, uint32(200000+rng.Intn(100000)))
	}
	minHash := func(h Hash, xs []uint32) uint64 {
		best := ^uint64(0)
		for _, x := range xs {
			best = min(best, h.Uint64(x))
		}
		return best
	}
	const trials = 3000
	match := 0
	for s := 0; s < trials; s++ {
		h := New(uint64(s))
		if minHash(h, a) == minHash(h, b) {
			match++
		}
	}
	got := float64(match) / trials
	if math.Abs(got-1.0/3) > 0.05 {
		t.Fatalf("min-hash collision rate %.3f, want ~0.333", got)
	}
}
